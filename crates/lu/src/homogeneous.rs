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
//!
//! The algorithm itself is [`crate::schedule::lu_schedule`], the ops the
//! threaded runtime executes; this module enrolls the paper's `P` and
//! replays their lowered frames on the simulator
//! ([`crate::schedule::replay`]). (Where the workers' memories hold their
//! share of the rows, each owns it for the whole run and solves its own
//! rows' panels; otherwise the core update runs as a product over the
//! trailing grid, one band of rows per worker, cut into chunks its memory
//! `m` holds under the product's `µ² + 4µ` layout. Either way the
//! simulated workers are held to `m` too.)

use crate::cost::LuProblem;
use crate::schedule::{chunk_sides, replay};
use mwp_platform::Platform;
use mwp_sim::SimReport;

/// The paper's worker count for the LU core update, `ceil(µw/3c)`.
pub fn ideal_lu_workers(mu: usize, w: f64, c: f64) -> usize {
    // Epsilon guards against float slop at exact integer ratios.
    (((mu as f64 * w) / (3.0 * c)) - 1e-9).ceil().max(1.0) as usize
}

/// Simulate the homogeneous LU algorithm on [`ideal_lu_workers`] of
/// `platform`'s workers: the [`replay`] of
/// [`crate::schedule::lu_schedule`] — the ops [`crate::runtime`]
/// executes — on `Platform::homogeneous(P, c, w, m)`, the fleet a session
/// spawned for §7.2's count runs, at the chunk sides
/// [`crate::runtime::factor`] deals it ([`chunk_sides`]): `factor` deals
/// over every worker of its fleet, so the replay's fleet is the `P`
/// enrolled. Returns the report and `P`.
///
/// # Panics
/// If `platform` is not homogeneous, or the matrix has a trailing update
/// and `m` holds no chunk.
pub fn simulate_homogeneous_lu(
    platform: &Platform,
    problem: LuProblem,
) -> Result<(SimReport, usize), mwp_sim::SimError> {
    #[allow(clippy::expect_used, reason = "a documented panic: the caller's platform is not homogeneous")]
    let params = platform.homogeneous_params().expect("homogeneous LU needs a homogeneous platform");
    let enrolled = ideal_lu_workers(problem.mu, params.w, params.c).min(platform.len());
    #[allow(clippy::expect_used, reason = "1 ≤ P ≤ p workers of a valid platform's own parameters")]
    let fleet = Platform::homogeneous(enrolled, params.c, params.w, params.m).expect("a valid platform's parameters");
    let sides = chunk_sides(&fleet, problem.r, problem.mu);
    Ok((replay(&fleet, problem.r, problem.mu, &sides)?, enrolled))
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
        // m = 60 and §7.2's m = µ² + 4µ = 12 for 2 × 2 chunks: the replay
        // holds every worker inside its memory either way.
        for (m, problem) in [(60, LuProblem::new(24, 6)), (12, LuProblem::new(8, 2))] {
            let pf = Platform::homogeneous(4, 2.0, 1.0, m).unwrap();
            let (report, enrolled) = simulate_homogeneous_lu(&pf, problem).unwrap();
            assert!((1..=4).contains(&enrolled));
            // Computation volume is the cost model's, to the block operation.
            assert_eq!(report.total_updates() as f64, problem.total().comp);
        }
    }

    #[test]
    fn communication_volume_matches_model() {
        // The scheduled volume (`cost` module docs): one worker enrolled,
        // m = 60 holds 6 × 6 chunks, so each step's 18-, 12- and 6-block
        // trailing grids re-ship a panel block per chunk and k-step — 3 168
        // blocks against the model's column-group 2 880. With the trailing
        // grid one chunk the schedule moves less than the model instead.
        let pf = Platform::homogeneous(4, 2.0, 1.0, 60).unwrap();
        let problem = LuProblem::new(24, 6);
        let (report, enrolled) = simulate_homogeneous_lu(&pf, problem).unwrap();
        let moved = (report.blocks_sent + report.blocks_received) as f64;
        assert_eq!(moved, crate::cost::scheduled_comm(problem, enrolled, 6));
        assert_eq!((moved, problem.total().comm, enrolled), (3168.0, 2880.0, 1));
        let roomy = Platform::homogeneous(4, 2.0, 1.0, 500).unwrap();
        let (report, _) = simulate_homogeneous_lu(&roomy, problem).unwrap();
        let moved = (report.blocks_sent + report.blocks_received) as f64;
        assert_eq!(moved, crate::cost::scheduled_comm(problem, 1, 20));
        assert!(moved < problem.total().comm);
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
    fn the_simulation_prices_what_factor_runs_on_the_enrolled_fleet() {
        // ⌈µw/3c⌉ = ⌈3·2/3⌉ = 2 of 4 workers: `factor` on a session of
        // those 2 moves the replay's blocks, in its frames (the lowered
        // ones plus a collect request per chunk).
        use crate::schedule::{lower, lu_schedule};
        use mwp_core::schedule::PortOp;
        let (problem, q) = (LuProblem::new(12, 3), 4);
        let (report, enrolled) = simulate_homogeneous_lu(&Platform::homogeneous(4, 1.0, 2.0, 60).unwrap(), problem).unwrap();
        assert_eq!(enrolled, 2);
        let fleet = Platform::homogeneous(enrolled, 1.0, 2.0, 60).unwrap();
        let session = mwp_core::session::RuntimeSession::with_transport(&fleet, 0.0, mwp_msg::TransportMode::Channel);
        let out = crate::runtime::factor(&session, &mwp_blockmat::fill::random_diagonally_dominant(12, q, 17), 3);
        session.shutdown();
        assert!(!out.aborted);
        assert_eq!(out.blocks_moved, report.blocks_sent + report.blocks_received);
        let ops = lu_schedule(12, 3, &chunk_sides(&fleet, 12, 3));
        let requests = ops.iter().filter(|op| matches!(op.chunk(), Some(PortOp::Collect { .. })));
        assert_eq!(out.messages, (lower(&ops).len() + requests.count()) as u64);
    }

    #[test]
    fn single_step_matrix_is_pivot_only() {
        let pf = Platform::homogeneous(2, 1.0, 1.0, 60).unwrap();
        let problem = LuProblem::new(6, 6); // one step
        let (report, _) = simulate_homogeneous_lu(&pf, problem).unwrap();
        // Only the pivot phase: 2µ² comm, µ³ comp — the model's own total.
        assert_eq!(report.blocks_sent + report.blocks_received, 72);
        assert_eq!(crate::cost::scheduled_comm(problem, 2, 1), 72.0);
        assert_eq!(report.total_updates(), 216);
    }
}
