//! Parallel LU on homogeneous clusters (Section 7.2).
//!
//! The core update dominates, so the paper parallelizes it: one processor
//! factors the pivot and updates both panels, then `P` workers update µ
//! column groups of the core matrix in parallel. Saturating the master's
//! port during a core round requires
//!
//! ```text
//! P = ceil( µ²(r−kµ)w / (µ² + 3µ(r−kµ))c ) ≈ ceil(µw / 3c)
//! ```
//!
//! workers (neglecting `µ²` against `3µ(r−kµ)` for `r/µ` large).

use crate::cost::LuProblem;
use mwp_platform::{Platform, WorkerId};
use mwp_sim::{Decision, SimReport, Simulator};

/// The paper's worker count for the LU core update, `ceil(µw/3c)`.
pub fn ideal_lu_workers(mu: usize, w: f64, c: f64) -> usize {
    // Epsilon guards against float slop at exact integer ratios.
    (((mu as f64 * w) / (3.0 * c)) - 1e-9).ceil().max(1.0) as usize
}

/// The Section 7.2 schedule as the simulator's port operations, in
/// order, with `enrolled` workers on the core update. LU is outside the
/// memory model (`mem_delta` 0 throughout).
///
/// Per elimination step `k`:
/// 1. the master sends the pivot to worker 0, which factors it
///    (`2µ²` blocks, `µ³` ops), then streams both panels through worker 0
///    row/column-wise (`4µ(r−kµ)` blocks, `µ²(r−kµ)` ops) — as single
///    messages with the step's aggregate cost (the paper streams
///    rows/columns, but the aggregate port/worker occupation is identical
///    under linear costs);
/// 2. the `r/µ − k` core column groups are dealt round-robin to the
///    enrolled workers: each group costs `µ² + 3(r−kµ)µ` blocks of
///    communication and `(r−kµ)µ²` ops. Outbound is the horizontal panel
///    chunk (`µ²`) plus one row of the vertical panel and the core rows
///    (`2(r−kµ)µ`), inbound the updated core rows (`(r−kµ)µ`) — aggregate
///    cost identical to the paper's accounting. All outbound messages go
///    first so that workers compute in parallel;
/// 3. the next step cannot start before every group of the current step
///    completes (the pivot of step `k+1` depends on the whole core): the
///    engine makes each receive wait for its worker to drain, which
///    realizes the barrier.
fn lu_frames(problem: LuProblem, enrolled: usize) -> Vec<Decision> {
    let send = |to, blocks, spawn_updates, label: &'static str| Decision::Send {
        to: WorkerId(to),
        blocks,
        spawn_updates,
        mem_delta: 0,
        label: label.into(),
    };
    let recv = |from, blocks, label: &'static str| Decision::Recv {
        from: WorkerId(from),
        blocks,
        mem_delta: 0,
        label: label.into(),
    };
    let mu = problem.mu;
    let mut frames = Vec::new();
    for k in 1..=problem.steps() {
        let sc = problem.step_cost(k);
        let rem = problem.r - k * mu;
        let pivot = sc.pivot.comm as u64 / 2;
        frames.push(send(0, pivot, sc.pivot.comp.ceil() as u64, "pivot"));
        frames.push(recv(0, pivot, "pivot back"));
        if rem > 0 {
            // Rows out and back (cost split half each way), with the
            // update work attached to the outbound half.
            let panels = (sc.vertical.comm + sc.horizontal.comm) as u64 / 2;
            let comp = (sc.vertical.comp + sc.horizontal.comp).ceil() as u64;
            frames.push(send(0, panels, comp, "panels"));
            frames.push(recv(0, panels, "panels back"));
        }
        let groups = problem.steps() - k;
        let outbound = (mu * mu + 2 * rem * mu) as u64;
        let updates = (rem * mu * mu) as u64;
        frames.extend((0..groups).map(|g| send(g % enrolled, outbound, updates, "core")));
        frames.extend((0..groups).map(|g| recv(g % enrolled, (rem * mu) as u64, "core back")));
    }
    frames
}

/// Simulate the homogeneous LU algorithm; returns the report and the
/// enrolled worker count.
pub fn simulate_homogeneous_lu(
    platform: &Platform,
    problem: LuProblem,
) -> Result<(SimReport, usize), mwp_sim::SimError> {
    let params = platform
        .homogeneous_params()
        .expect("homogeneous LU needs a homogeneous platform");
    let enrolled = ideal_lu_workers(problem.mu, params.w, params.c).min(platform.len());
    let mut frames = lu_frames(problem, enrolled).into_iter();
    let report = Simulator::new(platform.clone()).without_trace().run(&mut frames)?;
    Ok((report, enrolled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_worker_formula() {
        // P = ceil(µw/3c).
        assert_eq!(ideal_lu_workers(6, 3.0, 2.0), 3); // 18/6 = 3
        assert_eq!(ideal_lu_workers(6, 3.1, 2.0), 4);
        assert_eq!(ideal_lu_workers(1, 0.1, 10.0), 1); // clamped to ≥ 1
    }

    #[test]
    fn simulation_completes_all_work() {
        let pf = Platform::homogeneous(4, 2.0, 1.0, 60).unwrap();
        let problem = LuProblem::new(24, 6);
        let (report, enrolled) = simulate_homogeneous_lu(&pf, problem).unwrap();
        assert!((1..=4).contains(&enrolled));
        // Computation volume matches the cost model (up to per-step
        // rounding of fractional panel ops).
        let expected = problem.total().comp;
        let done = report.total_updates() as f64;
        assert!(
            (done - expected).abs() / expected < 0.01,
            "done {done} vs model {expected}"
        );
    }

    #[test]
    fn communication_volume_matches_model() {
        let pf = Platform::homogeneous(4, 2.0, 1.0, 60).unwrap();
        let problem = LuProblem::new(24, 6);
        let (report, _) = simulate_homogeneous_lu(&pf, problem).unwrap();
        let moved = (report.blocks_sent + report.blocks_received) as f64;
        let expected = problem.total().comm;
        assert!(
            (moved - expected).abs() / expected < 0.01,
            "moved {moved} vs model {expected}"
        );
    }

    #[test]
    fn more_workers_help_until_port_saturates() {
        let problem = LuProblem::new(40, 4);
        // Compute-bound: w/c = 8 -> P ≈ µw/3c = 11.
        let t1 = {
            let pf = Platform::homogeneous(1, 0.5, 4.0, 60).unwrap();
            simulate_homogeneous_lu(&pf, problem).unwrap().0.makespan
        };
        let t4 = {
            let pf = Platform::homogeneous(4, 0.5, 4.0, 60).unwrap();
            simulate_homogeneous_lu(&pf, problem).unwrap().0.makespan
        };
        let t16 = {
            let pf = Platform::homogeneous(16, 0.5, 4.0, 60).unwrap();
            simulate_homogeneous_lu(&pf, problem).unwrap().0.makespan
        };
        assert!(t4 < t1, "4 workers ({t4:?}) should beat 1 ({t1:?})");
        assert!(t16 <= t4, "16 workers ({t16:?}) should not lose to 4 ({t4:?})");
        // Past saturation the gain flattens: t16 cannot be 4× better
        // than t4.
        assert!(t4.value() / t16.value() < 4.0);
    }

    #[test]
    fn single_step_matrix_is_pivot_only() {
        let pf = Platform::homogeneous(2, 1.0, 1.0, 60).unwrap();
        let problem = LuProblem::new(6, 6); // one step
        let (report, _) = simulate_homogeneous_lu(&pf, problem).unwrap();
        // Only the pivot phase: 2µ² comm, µ³ comp.
        assert_eq!(report.blocks_sent + report.blocks_received, 72);
        assert_eq!(report.total_updates(), 216);
    }
}
