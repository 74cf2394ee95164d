//! The seven suite algorithms over the runtime's chunk exchange.
//!
//! Every algorithm processes the same unit of work — a rectangular chunk
//! of `C` blocks resident on one worker — through the same exchange
//! ([`crate::schedule::exchange`]: ship the chunk, stream the shared
//! dimension against it, collect it back), lowered to simulator frames in
//! one place ([`crate::schedule::lower`]). What varies is the memory
//! layout (chunk side, step depth and buffer budget), the set of enrolled
//! workers, and the order in which the master serves them:
//!
//! * HoLM and ORROML are Algorithm 1's lock-step rounds — a static order,
//!   so they are [`Replay`] of the [`Schedule::algorithm1`] the runtime
//!   executes;
//! * the other five decide online, from the workers' backlogs, whose
//!   exchange advances next. [`DemandDriven`] is that rule and nothing
//!   else: an eligibility horizon, and "lowest-index eligible" (OMMOML)
//!   or "most-starved eligible" (ODDOML, DDOML, BMM, OBMM).

use super::{AlgoError, AlgorithmKind};
use crate::chunks::{self, Chunk};
use crate::layout::MemoryLayout;
use crate::schedule::{exchange, lower, PortOp, Replay, Schedule};
use crate::selection::homogeneous::select_homogeneous;
use mwp_blockmat::Partition;
use mwp_platform::{Platform, WorkerId};
use mwp_sim::{Decision, MasterPolicy, SimTime, WorkerView};
use std::collections::VecDeque;

/// What `kind` runs with on a homogeneous `platform`: its memory layout,
/// the workers it enrolls (HoLM's resource selection, or all `p`) and
/// its chunk side µ (ν in HoLM's small-matrix regime).
fn plan(
    kind: AlgorithmKind,
    platform: &Platform,
    problem: &Partition,
) -> Result<(MemoryLayout, usize, usize), AlgoError> {
    let params = platform.homogeneous_params().ok_or(AlgoError::HeterogeneousPlatform)?;
    let layout = match kind {
        AlgorithmKind::DDOML => MemoryLayout::MaxReuseNoPrefetch,
        AlgorithmKind::BMM => MemoryLayout::ToledoThirds,
        AlgorithmKind::OBMM => MemoryLayout::ToledoFifths,
        _ => MemoryLayout::MaxReuseOverlapped,
    };
    // Checked before selecting: `select_homogeneous` asserts µ ≥ 1
    // (HoLM's layout is the one it selects under).
    let mu = layout.mu(params.m);
    if mu == 0 {
        return Err(AlgoError::MemoryTooSmall { m: params.m });
    }
    if kind == AlgorithmKind::HoLM {
        let sel = select_homogeneous(&params, platform.len(), problem.r, problem.s);
        return Ok((layout, sel.workers, sel.chunk_side));
    }
    Ok((layout, platform.len(), mu))
}

/// The simulator policy of `kind` on a homogeneous `platform`.
pub(super) fn policy(
    kind: AlgorithmKind,
    platform: &Platform,
    problem: &Partition,
) -> Result<Box<dyn MasterPolicy>, AlgoError> {
    let (layout, enrolled, mu) = plan(kind, platform, problem)?;
    if matches!(kind, AlgorithmKind::HoLM | AlgorithmKind::ORROML) {
        return Ok(Box::new(Replay::new(&Schedule::algorithm1(problem, mu, enrolled, 1))));
    }
    // Algorithm 1 walks column bands; the Toledo baselines use the usual
    // row-major out-of-core order and stream `µ`-deep squares.
    let (queue, stride) = if kind.uses_optimized_layout() {
        (chunks::algorithm1_order(problem, mu, enrolled), 1)
    } else {
        (chunks::tile_row_major(problem, mu), mu)
    };
    Ok(Box::new(DemandDriven {
        lowest_index: kind == AlgorithmKind::OMMOML,
        overlaps: layout.overlaps(),
        stride,
        t: problem.t,
        w: platform.workers()[0].w, // homogeneous: `plan` checked
        queue: queue.into(),
        runs: vec![VecDeque::new(); enrolled],
        fixed: vec![(layout.buffers_used(mu) - mu * mu) as i64; enrolled],
        pending: VecDeque::new(),
    }))
}

/// The online dispatch rule of the five demand-driven algorithms: each
/// time the port frees, serve the next op of one *eligible* worker.
struct DemandDriven {
    /// OMMOML takes the lowest-index eligible worker ("looking for
    /// potential workers in a given order" — selection is emergent); the
    /// others the most starved one (smallest compute backlog).
    lowest_index: bool,
    /// Whether the layout has prefetch buffers (see [`Self::next`]).
    overlaps: bool,
    /// Shared-dimension blocks per step: 1, or `µ` for Toledo squares.
    stride: usize,
    /// Shared dimension `t` in blocks.
    t: usize,
    /// Per-update compute cost `w` (homogeneous).
    w: f64,
    /// Chunks not yet assigned, front = next.
    queue: VecDeque<Chunk>,
    /// Per enrolled worker: the ops left of its resident chunk's exchange.
    runs: Vec<VecDeque<PortOp>>,
    /// Per enrolled worker: the layout's A/B buffers, not yet charged.
    fixed: Vec<i64>,
    /// Frames of the op being issued.
    pending: VecDeque<Decision>,
}

impl MasterPolicy for DemandDriven {
    fn next(&mut self, now: SimTime, views: &[WorkerView]) -> Decision {
        let (stride, t) = (self.stride, self.t);
        let depth = |k: usize| stride.min(t - k);
        loop {
            if let Some(frame) = self.pending.pop_front() {
                return frame;
            }
            // (key, worker) of the eligible worker to serve; otherwise
            // the earliest time one becomes eligible.
            let mut best: Option<(f64, usize)> = None;
            let mut earliest = f64::INFINITY;
            for (wi, run) in self.runs.iter().enumerate() {
                let ready = views[wi].ready.value();
                let at = match run.front() {
                    None if self.queue.is_empty() => continue,
                    // The C of a fresh chunk can always be pushed: the
                    // previous chunk is back.
                    None | Some(PortOp::SendC { .. }) => f64::NEG_INFINITY,
                    // The overlapped layouts keep one step in the working
                    // buffers and one in the prefetch buffers, so the
                    // master may run two steps of compute backlog ahead.
                    Some(PortOp::Step { chunk, k, .. }) if self.overlaps => {
                        ready - 2.0 * (chunk.blocks() as usize * depth(*k)) as f64 * self.w
                    }
                    // No prefetch: the worker must be idle before its
                    // next transfer; and collecting from a busy worker
                    // would stall the port.
                    Some(_) => ready,
                };
                if at > now.value() + 1e-12 {
                    earliest = earliest.min(at);
                } else {
                    let key = if self.lowest_index { wi as f64 } else { ready };
                    if best.is_none_or(|(lowest, _)| key < lowest) {
                        best = Some((key, wi));
                    }
                }
            }
            let Some((_, wi)) = best else {
                if earliest.is_finite() {
                    return Decision::WaitUntil(SimTime(earliest.max(now.value() + 1e-9)));
                }
                return Decision::Finished;
            };
            if self.runs[wi].is_empty() {
                let chunk = self.queue.pop_front().expect("eligible only while chunks remain");
                self.runs[wi].extend(exchange(0, WorkerId(wi), chunk, t, stride));
            }
            let op = self.runs[wi].pop_front().expect("just ensured");
            let deep = if let PortOp::Step { k, .. } = op { depth(k) } else { 1 };
            lower(&op, deep, &mut self.fixed[wi], &mut self.pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{simulate, simulate_traced};
    use mwp_sim::{SimError, Simulator};
    use proptest::prelude::*;

    /// A platform shaped like the paper's testbed in block units:
    /// comm-bound (c > w), plenty of memory for µ = 6.
    fn platform(p: usize) -> Platform {
        Platform::homogeneous(p, 4.0, 1.0, 60).unwrap()
    }

    fn problem() -> Partition {
        Partition::from_blocks(12, 24, 12, 80)
    }

    #[test]
    fn all_algorithms_complete_all_updates() {
        let pf = platform(4);
        let pr = problem();
        for kind in AlgorithmKind::ALL {
            let report = simulate(kind, &pf, &pr).unwrap_or_else(|e| {
                panic!("{} failed: {e}", kind.name());
            });
            assert_eq!(
                report.total_updates(),
                pr.total_updates(),
                "{} computed the wrong number of updates",
                kind.name()
            );
            // Every C block out and back exactly once.
            assert_eq!(
                report.blocks_received,
                pr.c_blocks(),
                "{} returned wrong C volume",
                kind.name()
            );
        }
    }

    #[test]
    fn one_port_invariant_holds_for_every_algorithm() {
        let pf = platform(3);
        let pr = Partition::from_blocks(6, 12, 6, 80);
        for kind in AlgorithmKind::ALL {
            let report = simulate_traced(kind, &pf, &pr).unwrap();
            report
                .trace
                .check_no_overlap()
                .unwrap_or_else(|pair| panic!("{}: overlap {:?} vs {:?}", kind.name(), pair.0, pair.1));
        }
    }

    #[test]
    fn holm_enrolls_fewer_workers_than_orroml() {
        // c = 4, w = 1, µ = 6 -> P = ceil(6·1/8) = 1; ORROML uses all 8.
        let pf = platform(8);
        let pr = problem();
        let (_, holm, _) = plan(AlgorithmKind::HoLM, &pf, &pr).unwrap();
        let (_, orro, _) = plan(AlgorithmKind::ORROML, &pf, &pr).unwrap();
        assert!(holm < orro);
        assert_eq!(orro, 8);
    }

    #[test]
    fn holm_matches_orroml_makespan_with_fewer_workers() {
        // The paper's headline: resource selection does not cost time on a
        // comm-bound platform (within a few percent).
        let pf = platform(8);
        let pr = problem();
        let holm = simulate(AlgorithmKind::HoLM, &pf, &pr).unwrap();
        let orro = simulate(AlgorithmKind::ORROML, &pf, &pr).unwrap();
        let ratio = holm.makespan.value() / orro.makespan.value();
        assert!(
            ratio < 1.10,
            "HoLM {:.1} vs ORROML {:.1} (ratio {ratio:.3})",
            holm.makespan.value(),
            orro.makespan.value()
        );
    }

    #[test]
    fn optimized_layout_beats_toledo() {
        // Fig. 10's central result: the optimized layout wins clearly on a
        // comm-bound platform.
        let pf = platform(8);
        let pr = problem();
        let holm = simulate(AlgorithmKind::HoLM, &pf, &pr).unwrap();
        let bmm = simulate(AlgorithmKind::BMM, &pf, &pr).unwrap();
        assert!(
            holm.makespan.value() < bmm.makespan.value(),
            "HoLM {} !< BMM {}",
            holm.makespan.value(),
            bmm.makespan.value()
        );
    }

    #[test]
    fn obmm_improves_on_bmm_when_compute_bound() {
        // Overlap pays when workers are the bottleneck: BMM's workers sit
        // idle during every transfer, OBMM's compute through them. (On a
        // comm-bound platform OBMM's smaller squares can lose instead —
        // the fifths layout shrinks µ and raises the CCR.)
        let pf = Platform::homogeneous(2, 1.0, 8.0, 60).unwrap();
        let pr = problem();
        let bmm = simulate(AlgorithmKind::BMM, &pf, &pr).unwrap();
        let obmm = simulate(AlgorithmKind::OBMM, &pf, &pr).unwrap();
        assert!(
            obmm.makespan < bmm.makespan,
            "OBMM {} should beat BMM {} on a compute-bound platform",
            obmm.makespan.value(),
            bmm.makespan.value()
        );
    }

    #[test]
    fn ddoml_gets_larger_mu_but_no_overlap() {
        // m = 15: µ = 3 without prefetch buffers vs 2 with them.
        let pf = Platform::homogeneous(2, 1.0, 1.0, 15).unwrap();
        let pr = Partition::from_blocks(6, 6, 6, 80);
        let (dd, _, dd_mu) = plan(AlgorithmKind::DDOML, &pf, &pr).unwrap();
        let (od, _, od_mu) = plan(AlgorithmKind::ODDOML, &pf, &pr).unwrap();
        assert_eq!((dd_mu, dd.overlaps()), (3, false));
        assert_eq!((od_mu, od.overlaps()), (2, true));
    }

    #[test]
    fn measured_ccr_tracks_formula() {
        // One worker, big memory: CCR should be close to 2/t + 2/µ.
        let pf = Platform::homogeneous(1, 1.0, 1.0, 60).unwrap(); // µ = 6
        let pr = Partition::from_blocks(6, 6, 12, 80); // t = 12
        let report = simulate(AlgorithmKind::ORROML, &pf, &pr).unwrap();
        let expected = crate::bounds::ccr_max_reuse(6, 12);
        let measured = report.measured_ccr();
        assert!(
            (measured - expected).abs() / expected < 0.05,
            "measured {measured} vs formula {expected}"
        );
    }

    #[test]
    fn heterogeneous_platform_rejected() {
        let pf = Platform::new(vec![
            mwp_platform::WorkerParams::new(1.0, 1.0, 60),
            mwp_platform::WorkerParams::new(2.0, 1.0, 60),
        ])
        .unwrap();
        let err = plan(AlgorithmKind::HoLM, &pf, &problem()).unwrap_err();
        assert_eq!(err, AlgoError::HeterogeneousPlatform);
    }

    #[test]
    fn tiny_memory_rejected() {
        let pf = Platform::homogeneous(2, 1.0, 1.0, 4).unwrap();
        for kind in [AlgorithmKind::ORROML, AlgorithmKind::HoLM] {
            let err = simulate(kind, &pf, &problem()).unwrap_err();
            assert_eq!(err, AlgoError::MemoryTooSmall { m: 4 }, "{}", kind.name());
        }
    }

    #[test]
    fn ragged_problem_sizes_work() {
        // r, s not divisible by µ: edge chunks are clamped.
        let pf = platform(3);
        let pr = Partition::from_blocks(7, 11, 5, 80);
        for kind in AlgorithmKind::ALL {
            let report = simulate(kind, &pf, &pr).unwrap();
            assert_eq!(report.total_updates(), pr.total_updates(), "{}", kind.name());
        }
    }

    #[test]
    fn compute_bound_platform_uses_more_workers() {
        // w = 16c: HoLM must enroll many workers.
        let pf = Platform::homogeneous(16, 0.5, 8.0, 60).unwrap();
        let pr = problem();
        // P = ceil(µw/2c) = ceil(6·8/1) = 48 -> clamped to 16.
        assert_eq!(plan(AlgorithmKind::HoLM, &pf, &pr).unwrap().1, 16);
    }
    proptest! {
        /// The dispatch rule on arbitrary grids (`t` mostly not a
        /// multiple of µ, so Toledo's last square is ragged): every
        /// update once, every C block out and back once, one transfer at
        /// a time — and the worker that holds a full chunk holds exactly
        /// its layout's `buffers_used(µ)`, so the engine's memory check
        /// is against that number and not a smaller one.
        #[test]
        fn demand_driven_kinds_complete_within_their_layout(
            (p, c, w) in (1usize..7, 1u32..6, 1u32..6),
            m in 0usize..4,
            (r, s, t) in (1usize..15, 1usize..15, 1usize..10),
        ) {
            let (c, w, m) = (c as f64, w as f64, [12, 21, 60, 140][m]);
            let pf = Platform::homogeneous(p, c, w, m).unwrap();
            let pr = Partition::from_blocks(r, s, t, 4);
            for kind in AlgorithmKind::ALL {
                let report = simulate_traced(kind, &pf, &pr).unwrap();
                prop_assert_eq!(report.total_updates(), (r * s * t) as u64, "{}", kind.name());
                prop_assert_eq!(report.blocks_received, (r * s) as u64, "{}", kind.name());
                prop_assert!(report.trace.check_no_overlap().is_ok(), "{}", kind.name());

                let (layout, enrolled, mu) = plan(kind, &pf, &pr).unwrap();
                if matches!(kind, AlgorithmKind::HoLM | AlgorithmKind::ORROML) {
                    // The static kinds are the runtime's schedule, replayed.
                    let schedule = Schedule::algorithm1(&pr, mu, enrolled, 1);
                    let replayed = Simulator::new(pf.clone()).run(&mut Replay::new(&schedule)).unwrap();
                    prop_assert_eq!(report.makespan, replayed.makespan);
                    prop_assert_eq!(report.port_busy_time, replayed.port_busy_time);
                    prop_assert_eq!(report.blocks_sent, replayed.blocks_sent);
                    continue;
                }
                let used = layout.buffers_used(mu);
                let run = |capacity| {
                    let engine = Simulator::new(Platform::homogeneous(p, c, w, capacity).unwrap());
                    engine.without_trace().run(policy(kind, &pf, &pr).unwrap().as_mut())
                };
                prop_assert!(run(used).is_ok(), "{} overflows its own layout", kind.name());
                if r >= mu && s >= mu {
                    let tight = matches!(run(used - 1), Err(SimError::MemoryOverflow { .. }));
                    prop_assert!(tight, "{} charges less than its layout", kind.name());
                }
            }
        }
    }
}
