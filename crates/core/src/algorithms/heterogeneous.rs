//! Two-phase heterogeneous execution (Section 6.2).
//!
//! Phase 1 pre-computes the allocation of chunks to processors with an
//! incremental selection rule ([`crate::selection::incremental`]); phase 2
//! replays it on the real `r × s` grid: each selection of `P_i` is one
//! step of `P_i`'s current chunk, the paper "assigns only full matrix
//! column blocks" so chunks are cut from per-worker column groups, and a
//! round-robin tail finishes what the selection's termination test left.
//! That order is [`Schedule::two_phase`] — the schedule
//! `run_heterogeneous` executes — and this module only puts it through
//! the simulator, so E6b, E13 and `mwp-run --platform-file` describe the
//! program the runtime runs: exactly `r·s·t` updates, exactly its blocks.

use super::AlgoError;
use crate::runtime::{heterogeneous_mu, MemoryTooSmall};
use crate::schedule::{Replay, Schedule};
use crate::selection::incremental::SelectionRule;
use mwp_blockmat::Partition;
use mwp_platform::Platform;
use mwp_sim::{Decision, MasterPolicy, SimReport, SimTime, Simulator, WorkerView};

/// [`Replay`] of the two-phase schedule, as a simulator policy.
pub struct HeterogeneousPolicy(Replay);

impl HeterogeneousPolicy {
    /// Phase 1 + policy construction for `platform` and `problem`.
    /// Panics when no worker's memory holds a chunk
    /// ([`simulate_heterogeneous`] reports that as an error).
    pub fn plan(platform: &Platform, problem: &Partition, rule: SelectionRule) -> Self {
        Self::try_plan(platform, problem, rule).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_plan(
        platform: &Platform,
        problem: &Partition,
        rule: SelectionRule,
    ) -> Result<Self, AlgoError> {
        let mu = heterogeneous_mu(platform)
            .map_err(|MemoryTooSmall(m)| AlgoError::MemoryTooSmall { m })?;
        let schedule = Schedule::two_phase(platform, &mu, rule, problem);
        Ok(HeterogeneousPolicy(Replay::new(&schedule)))
    }
}

impl MasterPolicy for HeterogeneousPolicy {
    fn next(&mut self, now: SimTime, workers: &[WorkerView]) -> Decision {
        self.0.next(now, workers)
    }
}

/// Simulate the two-phase heterogeneous execution.
pub fn simulate_heterogeneous(
    platform: &Platform,
    problem: &Partition,
    rule: SelectionRule,
) -> Result<SimReport, AlgoError> {
    let mut policy = HeterogeneousPolicy::try_plan(platform, problem, rule)?;
    Ok(Simulator::new(platform.clone()).without_trace().run(&mut policy)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::bandwidth_centric::steady_state;
    use crate::selection::incremental::run_selection_with_mu;
    use mwp_platform::WorkerParams;

    fn table2() -> Platform {
        Platform::new(vec![
            WorkerParams::new(2.0, 2.0, 60),
            WorkerParams::new(3.0, 3.0, 396),
            WorkerParams::new(5.0, 1.0, 140),
        ])
        .unwrap()
    }

    #[test]
    fn executes_and_respects_memory() {
        let pf = table2();
        let pr = Partition::from_blocks(36, 36, 8, 80);
        for rule in [
            SelectionRule::Global,
            SelectionRule::Local,
            SelectionRule::TwoStepLookahead,
        ] {
            let report = simulate_heterogeneous(&pf, &pr, rule)
                .unwrap_or_else(|e| panic!("{rule:?}: {e}"));
            assert!(report.total_updates() > 0, "{rule:?} did no work");
            assert!(report.makespan.value() > 0.0);
        }
    }

    #[test]
    fn throughput_below_steady_state_bound() {
        // The steady-state LP upper-bounds any realizable schedule. The
        // paper (and Algorithm 3) neglect C-chunk I/O, which is only valid
        // when t is large relative to µ — hence t = 400 here. The scheme
        // assigns whole column groups, so the grid must be many groups
        // wide for the slowest worker's last one not to be the makespan:
        // 36 × 72 (four groups of the µ = 18 worker) reads 0.57 / 0.69.
        let pf = table2();
        let pr = Partition::from_blocks(180, 180, 400, 80);
        let bound = steady_state(&pf).throughput;
        for rule in [SelectionRule::Global, SelectionRule::Local] {
            let report = simulate_heterogeneous(&pf, &pr, rule).unwrap();
            let thr = report.throughput();
            assert!(
                thr <= bound * 1.01,
                "{rule:?}: throughput {thr} exceeds steady-state bound {bound}"
            );
            // And it should not be catastrophically below it either (the
            // selection heuristics reach >75% of steady state here).
            assert!(
                thr >= bound * 0.6,
                "{rule:?}: throughput {thr} far below bound {bound}"
            );
        }
    }

    #[test]
    fn simulated_ratio_matches_selection_prediction() {
        // Algorithm 3's internal timeline is exactly the simulator's
        // one-port model up to C-chunk I/O, which both the paper and the
        // prediction neglect; with t ≫ µ and a grid many column groups
        // wide the two must agree closely (36 × 72 reads 0.794 against
        // the predicted 1.173: the last column group is the makespan).
        let pf = table2();
        let pr = Partition::from_blocks(180, 180, 400, 80);
        let mu = vec![6, 18, 10];
        let trace = run_selection_with_mu(&pf, &mu, SelectionRule::Global, 180, 180, 400);
        let report = simulate_heterogeneous(&pf, &pr, SelectionRule::Global).unwrap();
        let sim_ratio = report.throughput();
        assert!(
            (sim_ratio - trace.ratio).abs() / trace.ratio < 0.15,
            "predicted {} vs simulated {sim_ratio}",
            trace.ratio
        );
    }

    #[test]
    fn tiny_memory_rejected() {
        // No µ_i ≥ 1 anywhere: an error like `simulate`'s and
        // `run_heterogeneous`'s, not the selection's assertion.
        let pf = Platform::new(vec![WorkerParams::new(1.0, 1.0, 4), WorkerParams::new(2.0, 1.0, 3)])
            .unwrap();
        let pr = Partition::from_blocks(4, 4, 4, 8);
        let err = simulate_heterogeneous(&pf, &pr, SelectionRule::Global).unwrap_err();
        assert_eq!(err, AlgoError::MemoryTooSmall { m: 3 });
    }

    #[test]
    fn all_workers_eventually_participate() {
        let pf = table2();
        let pr = Partition::from_blocks(36, 72, 8, 80);
        let report = simulate_heterogeneous(&pf, &pr, SelectionRule::Global).unwrap();
        assert_eq!(report.workers_used(), 3);
    }
}
