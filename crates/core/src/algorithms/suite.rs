//! The shared chunk state machine behind all seven suite algorithms.
//!
//! Every algorithm processes the same unit of work — a rectangular chunk
//! of `C` blocks resident on one worker — through the same message cycle:
//!
//! 1. send the chunk's C blocks,
//! 2. for each step of the shared dimension, send the step's A/B data and
//!    let the worker update the resident C blocks,
//! 3. receive the finished C blocks back.
//!
//! What varies is the memory layout (step granularity and buffer budget),
//! the set of enrolled workers, and the *dispatch discipline* deciding
//! which worker the master serves next. Those three knobs reproduce all
//! seven algorithms of Section 8.

use super::{AlgoError, AlgorithmKind};
use crate::chunks::{self, Chunk};
use crate::layout::MemoryLayout;
use crate::selection::homogeneous::select_homogeneous;
use mwp_blockmat::Partition;
use mwp_platform::{Platform, WorkerId};
use mwp_sim::{label_if, Decision, MasterPolicy, SimTime, WorkerView};
use std::collections::VecDeque;

/// How the master chooses which worker to serve next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    /// Strict cyclic order over enrolled workers; the master blocks on an
    /// ineligible worker (Algorithm 1's lockstep). HoLM, ORROML.
    RoundRobin,
    /// Lowest-index eligible worker (the paper's OMMOML "looking for
    /// potential workers in a given order" — selection is emergent).
    FirstAvailable,
    /// Most-starved eligible worker (smallest compute backlog). ODDOML,
    /// DDOML, BMM, OBMM.
    DemandDriven,
}

/// Per-chunk progress through the message cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// C blocks not sent yet.
    SendC,
    /// Streaming step `k` of the shared dimension (`k < t`, advanced by
    /// `step` blocks per round — 1 for the optimized layout, `µ` for
    /// Toledo squares).
    Round(usize),
    /// All updates issued; C blocks to be received back.
    RecvC,
}

/// One worker's run state.
#[derive(Debug)]
struct WorkerRun {
    /// Chunk currently resident, if any.
    chunk: Option<(Chunk, Stage)>,
    /// Whether the fixed A/B working buffers have been accounted.
    buffers_allocated: bool,
    /// Finished with all chunks (nothing left in the queue for it).
    retired: bool,
}

/// The policy driving the simulation of one suite algorithm.
#[derive(Debug)]
pub struct SuitePolicy {
    kind: AlgorithmKind,
    layout: MemoryLayout,
    dispatch: Dispatch,
    /// Chunk side µ (or ν in the small-matrix regime).
    mu: usize,
    /// Shared dimension `t` in blocks.
    t: usize,
    /// Per-update compute cost `w` (homogeneous).
    w: f64,
    /// Enrolled workers (a prefix of the platform's workers).
    enrolled: usize,
    /// Remaining chunks, front = next to assign.
    queue: VecDeque<Chunk>,
    /// Per-enrolled-worker state.
    runs: Vec<WorkerRun>,
    /// Round-robin cursor.
    turn: usize,
    /// Messages already decided but not yet handed to the engine.
    pending: VecDeque<Decision>,
    /// Whether the engine records a trace; when false, per-event labels
    /// are skipped so the hot loop allocates nothing.
    labels: bool,
}

impl SuitePolicy {
    /// Configure `kind` for a homogeneous `platform` and `problem`.
    pub fn new(
        kind: AlgorithmKind,
        platform: &Platform,
        problem: &Partition,
    ) -> Result<Self, AlgoError> {
        let params = platform
            .homogeneous_params()
            .ok_or(AlgoError::HeterogeneousPlatform)?;
        let p = platform.len();

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
        let (enrolled, mu) = match kind {
            AlgorithmKind::HoLM => {
                let sel = select_homogeneous(&params, p, problem.r, problem.s);
                (sel.workers, sel.chunk_side)
            }
            _ => (p, mu),
        };

        let dispatch = match kind {
            AlgorithmKind::HoLM | AlgorithmKind::ORROML => Dispatch::RoundRobin,
            AlgorithmKind::OMMOML => Dispatch::FirstAvailable,
            _ => Dispatch::DemandDriven,
        };

        // Chunk order: Algorithm 1 walks column bands of `enrolled`
        // consecutive column-chunks; the Toledo baselines use the usual
        // row-major out-of-core order.
        let tiles = if kind.uses_optimized_layout() {
            chunks::algorithm1_order(problem, mu, enrolled)
        } else {
            chunks::tile_row_major(problem, mu)
        };

        Ok(SuitePolicy {
            kind,
            layout,
            dispatch,
            mu,
            t: problem.t,
            w: params.w,
            enrolled,
            queue: tiles.into(),
            runs: (0..enrolled)
                .map(|_| WorkerRun { chunk: None, buffers_allocated: false, retired: false })
                .collect(),
            turn: 0,
            pending: VecDeque::new(),
            labels: true,
        })
    }

    /// The algorithm being simulated.
    pub fn kind(&self) -> AlgorithmKind {
        self.kind
    }

    /// Number of enrolled workers (HoLM's resource selection, or `p`).
    pub fn enrolled_workers(&self) -> usize {
        self.enrolled
    }

    /// Chunk side in blocks.
    pub fn chunk_side(&self) -> usize {
        self.mu
    }

    /// Shared-dimension advance per round: 1 block for the optimized
    /// layout (a row of B, then single A blocks), `µ` for Toledo squares.
    fn k_step(&self) -> usize {
        if self.kind.uses_optimized_layout() {
            1
        } else {
            self.mu
        }
    }

    /// Compute time of one round for `chunk` — the eligibility horizon for
    /// overlapped dispatch (at most one spare round queued).
    fn round_compute_time(&self, chunk: &Chunk, k: usize) -> f64 {
        let kw = self.k_step().min(self.t - k);
        (chunk.height * chunk.width * kw) as f64 * self.w
    }

    /// Fixed A/B buffer cost charged on a worker's first message.
    fn fixed_buffers(&self) -> i64 {
        (self.layout.buffers_used(self.mu) - self.mu * self.mu) as i64
    }

    /// Earliest time worker `view` may accept the next message of `stage`.
    /// `f64::NEG_INFINITY` means "now".
    fn eligible_at(&self, view: &WorkerView, chunk: &Chunk, stage: Stage) -> f64 {
        match stage {
            // C of a fresh chunk can always be pushed: the previous chunk
            // was already received back (stage machine enforces order).
            Stage::SendC => f64::NEG_INFINITY,
            Stage::Round(k) => {
                if self.layout.overlaps() {
                    // The overlapped layouts keep one round in the working
                    // buffers and one in the prefetch buffers, so the
                    // master may run up to two rounds of compute backlog
                    // ahead of the worker.
                    view.ready.value() - 2.0 * self.round_compute_time(chunk, k)
                } else {
                    // No overlap: the worker must be idle before the next
                    // transfer starts.
                    view.ready.value()
                }
            }
            // Receiving early would stall the port on a busy worker; wait
            // until the worker drains.
            Stage::RecvC => view.ready.value(),
        }
    }

    /// Enqueue the messages of one *turn* for worker `w` and advance its
    /// stage. Returns false if the worker had nothing to do (retired).
    fn emit_turn(&mut self, w: usize) -> bool {
        let Some((chunk, stage)) = self.runs[w].chunk else {
            return false;
        };
        let to = WorkerId(w);
        match stage {
            Stage::SendC => {
                let mut mem = chunk.blocks() as i64;
                if !self.runs[w].buffers_allocated {
                    self.runs[w].buffers_allocated = true;
                    mem += self.fixed_buffers();
                }
                self.pending.push_back(Decision::Send {
                    to,
                    blocks: chunk.blocks(),
                    spawn_updates: 0,
                    mem_delta: mem,
                    label: label_if(self.labels, || format!("C[{},{}]", chunk.i0, chunk.j0)),
                });
                self.runs[w].chunk = Some((chunk, Stage::Round(0)));
            }
            Stage::Round(k) => {
                let kw = self.k_step().min(self.t - k);
                if self.kind.uses_optimized_layout() {
                    // One step k: a row of B (width blocks), then single A
                    // blocks each enabling `width` updates (Algorithm 1).
                    self.pending.push_back(Decision::Send {
                        to,
                        blocks: chunk.width as u64,
                        spawn_updates: 0,
                        mem_delta: 0,
                        label: label_if(self.labels, || format!("B[{k},*]")),
                    });
                    for row in 0..chunk.height {
                        self.pending.push_back(Decision::Send {
                            to,
                            blocks: 1,
                            spawn_updates: chunk.width as u64,
                            mem_delta: 0,
                            label: label_if(self.labels, || format!("A[{},{k}]", chunk.i0 + row)),
                        });
                    }
                } else {
                    // Toledo: a square of A (height × kw) and a square of
                    // B (kw × width); the update fires when B lands.
                    self.pending.push_back(Decision::Send {
                        to,
                        blocks: (chunk.height * kw) as u64,
                        spawn_updates: 0,
                        mem_delta: 0,
                        label: label_if(self.labels, || format!("Asq[k={k}]")),
                    });
                    self.pending.push_back(Decision::Send {
                        to,
                        blocks: (kw * chunk.width) as u64,
                        spawn_updates: (chunk.height * chunk.width * kw) as u64,
                        mem_delta: 0,
                        label: label_if(self.labels, || format!("Bsq[k={k}]")),
                    });
                }
                let next_k = k + kw;
                let next = if next_k >= self.t { Stage::RecvC } else { Stage::Round(next_k) };
                self.runs[w].chunk = Some((chunk, next));
            }
            Stage::RecvC => {
                self.pending.push_back(Decision::Recv {
                    from: to,
                    blocks: chunk.blocks(),
                    mem_delta: -(chunk.blocks() as i64),
                    label: label_if(self.labels, || format!("C[{},{}]", chunk.i0, chunk.j0)),
                });
                self.runs[w].chunk = None;
            }
        }
        true
    }

    /// Try to hand worker `w` its next chunk. Returns true on success.
    fn assign_chunk(&mut self, w: usize) -> bool {
        if self.runs[w].chunk.is_some() || self.runs[w].retired {
            return false;
        }
        match self.queue.pop_front() {
            Some(chunk) => {
                self.runs[w].chunk = Some((chunk, Stage::SendC));
                true
            }
            None => {
                self.runs[w].retired = true;
                false
            }
        }
    }

    /// Refill `pending` according to the dispatch discipline, or decide to
    /// wait / finish.
    fn refill(&mut self, now: SimTime, views: &[WorkerView]) -> Option<Decision> {
        match self.dispatch {
            Dispatch::RoundRobin => self.refill_round_robin(now, views),
            Dispatch::FirstAvailable | Dispatch::DemandDriven => {
                self.refill_demand(now, views)
            }
        }
    }

    #[allow(clippy::needless_range_loop)] // `w` indexes three parallel structures
    fn refill_round_robin(&mut self, now: SimTime, views: &[WorkerView]) -> Option<Decision> {
        // Visit workers in strict cyclic order; block on the first one
        // that has (or can get) work.
        for _ in 0..self.enrolled {
            let w = self.turn;
            if self.runs[w].chunk.is_none() {
                self.assign_chunk(w);
            }
            if let Some((chunk, stage)) = self.runs[w].chunk {
                let at = self.eligible_at(&views[w], &chunk, stage);
                if at > now.value() + 1e-12 {
                    // Algorithm 1's master blocks on this worker's send.
                    return Some(Decision::WaitUntil(SimTime(at)));
                }
                self.emit_turn(w);
                self.turn = (self.turn + 1) % self.enrolled;
                return None; // pending now has messages
            }
            self.turn = (self.turn + 1) % self.enrolled;
        }
        Some(Decision::Finished)
    }

    #[allow(clippy::needless_range_loop)] // `w` indexes several parallel structures
    fn refill_demand(&mut self, now: SimTime, views: &[WorkerView]) -> Option<Decision> {
        // Gather candidates: workers with an active chunk, plus inactive
        // ones if chunks remain to assign.
        let mut best: Option<(f64, usize)> = None; // (key, worker)
        let mut earliest_block = f64::INFINITY;
        let mut any_active = false;
        for w in 0..self.enrolled {
            let state = match self.runs[w].chunk {
                Some((chunk, stage)) => Some((chunk, stage)),
                None if !self.runs[w].retired && !self.queue.is_empty() => None,
                _ => continue,
            };
            any_active = true;
            let at = match state {
                Some((chunk, stage)) => self.eligible_at(&views[w], &chunk, stage),
                // A fresh chunk starts with SendC: always eligible.
                None => f64::NEG_INFINITY,
            };
            if at <= now.value() + 1e-12 {
                let key = match self.dispatch {
                    Dispatch::FirstAvailable => w as f64,
                    _ => views[w].ready.value(),
                };
                if best.is_none_or(|(bk, bw)| key < bk || (key == bk && w < bw)) {
                    best = Some((key, w));
                }
            } else {
                earliest_block = earliest_block.min(at);
            }
        }
        match best {
            Some((_, w)) => {
                if self.runs[w].chunk.is_none() {
                    self.assign_chunk(w);
                }
                self.emit_turn(w);
                None
            }
            None if any_active && earliest_block.is_finite() => {
                Some(Decision::WaitUntil(SimTime(earliest_block.max(now.value() + 1e-9))))
            }
            None if any_active => unreachable!("active worker with no eligibility time"),
            None => Some(Decision::Finished),
        }
    }
}

impl MasterPolicy for SuitePolicy {
    fn trace_labels(&mut self, enabled: bool) {
        self.labels = enabled;
    }

    fn next(&mut self, now: SimTime, workers: &[WorkerView]) -> Decision {
        loop {
            if let Some(d) = self.pending.pop_front() {
                return d;
            }
            if let Some(d) = self.refill(now, workers) {
                return d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{simulate, simulate_traced};

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
        let holm = SuitePolicy::new(AlgorithmKind::HoLM, &pf, &pr).unwrap();
        let orro = SuitePolicy::new(AlgorithmKind::ORROML, &pf, &pr).unwrap();
        assert!(holm.enrolled_workers() < orro.enrolled_workers());
        assert_eq!(orro.enrolled_workers(), 8);
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
        let dd = SuitePolicy::new(AlgorithmKind::DDOML, &pf, &pr).unwrap();
        let od = SuitePolicy::new(AlgorithmKind::ODDOML, &pf, &pr).unwrap();
        assert_eq!(dd.chunk_side(), 3);
        assert_eq!(od.chunk_side(), 2);
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
        let err = SuitePolicy::new(AlgorithmKind::HoLM, &pf, &problem()).unwrap_err();
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
        let holm = SuitePolicy::new(AlgorithmKind::HoLM, &pf, &pr).unwrap();
        // P = ceil(µw/2c) = ceil(6·8/1) = 48 -> clamped to 16.
        assert_eq!(holm.enrolled_workers(), 16);
    }
}
