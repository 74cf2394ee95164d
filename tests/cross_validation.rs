//! Cross-crate validation: the analytic cost model, the discrete-event
//! simulator, and the threaded runtime must tell the same story.

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::random_matrix;
use mwp_core::selection::homogeneous::ideal_worker_count;

/// On a comm-bound homogeneous platform with all workers enrolled, the
/// ORROML schedule keeps the port saturated: the simulated makespan must
/// equal total-blocks × c (the analytic port bound) almost exactly.
#[test]
fn simulator_matches_port_bound_when_comm_bound() {
    let (c, w) = (4.0, 0.25); // strongly comm-bound
    let platform = Platform::homogeneous(8, c, w, 60).unwrap(); // µ = 6
    let problem = Partition::from_blocks(12, 12, 24, 80);
    let report = simulate(AlgorithmKind::ORROML, &platform, &problem).unwrap();

    // Total traffic: C out+back plus per-chunk A/B streams.
    let mu = 6u64;
    let chunks = (12 / 6) * (12 / 6);
    let blocks = 2 * (problem.r * problem.s) as u64 + chunks * problem.t as u64 * 2 * mu;
    assert_eq!(report.blocks_sent + report.blocks_received, blocks);
    let port_bound = blocks as f64 * c;
    let slack = report.makespan.value() / port_bound;
    assert!(
        (1.0..1.02).contains(&slack),
        "makespan {} vs port bound {port_bound} (slack {slack})",
        report.makespan.value()
    );
}

/// The simulator's communication volume and the threaded runtime's block
/// counters must agree exactly for the same algorithm and configuration.
#[test]
fn runtime_and_simulator_move_the_same_blocks() {
    let platform = Platform::homogeneous(3, 2.0, 1.0, 60).unwrap(); // µ = 6
    let q = 8;
    let (r, t, s) = (6, 5, 12);
    let problem = Partition::from_blocks(r, s, t, q);

    let sim_report = simulate(AlgorithmKind::ORROML, &platform, &problem).unwrap();
    let a = random_matrix(r, t, q, 1);
    let b = random_matrix(t, s, q, 2);
    let c0 = random_matrix(r, s, q, 3);
    let run = run_all_workers(&platform, &a, &b, c0, 0.0).unwrap();

    assert_eq!(
        run.blocks_moved,
        sim_report.blocks_sent + sim_report.blocks_received,
        "threaded runtime and simulator disagree on communication volume"
    );
}

/// Measured CCR from the simulator converges to the paper's formula
/// `2/t + 2/µ` as problems grow.
#[test]
fn measured_ccr_converges_to_formula() {
    let platform = Platform::homogeneous(1, 1.0, 1.0, 60).unwrap(); // µ = 6
    for t in [6usize, 24, 96] {
        let problem = Partition::from_blocks(6, 6, t, 80);
        let report = simulate(AlgorithmKind::ORROML, &platform, &problem).unwrap();
        let formula = bounds::ccr_max_reuse(6, t);
        let measured = report.measured_ccr();
        assert!(
            (measured - formula).abs() / formula < 0.02,
            "t = {t}: measured {measured} vs formula {formula}"
        );
    }
}

/// The Loomis–Whitney lower bound really is a lower bound for every
/// algorithm in the suite (in block terms, using each algorithm's actual
/// buffer budget).
#[test]
fn no_algorithm_beats_the_lower_bound() {
    let m = 140;
    let platform = Platform::homogeneous(4, 1.0, 1.0, m).unwrap();
    let problem = Partition::from_blocks(20, 20, 40, 80);
    let lower = bounds::lower_bound_loomis_whitney(m);
    for kind in AlgorithmKind::ALL {
        let report = simulate(kind, &platform, &problem).unwrap();
        let ccr = report.measured_ccr();
        assert!(
            ccr >= lower * 0.999,
            "{}: CCR {ccr} beats the lower bound {lower}",
            kind.name()
        );
    }
}

/// Steady-state LP bound dominates every simulated heterogeneous
/// execution (throughput-wise).
#[test]
fn steady_state_dominates_heterogeneous_runs() {
    use mwp_core::algorithms::heterogeneous::simulate_heterogeneous;
    let platform = Platform::new(vec![
        WorkerParams::new(2.0, 2.0, 60),
        WorkerParams::new(3.0, 3.0, 396),
        WorkerParams::new(5.0, 1.0, 140),
    ])
    .unwrap();
    let bound = steady_state(&platform).throughput;
    let problem = Partition::from_blocks(36, 72, 300, 80);
    for rule in [
        SelectionRule::Global,
        SelectionRule::Local,
        SelectionRule::TwoStepLookahead,
    ] {
        let report = simulate_heterogeneous(&platform, &problem, rule).unwrap();
        assert!(
            report.throughput() <= bound * 1.001,
            "{rule:?} exceeded the steady-state bound"
        );
    }
}

/// HoLM's enrolled-worker prediction on a calibrated platform is §5's one
/// `P = ceil(µw/2c)`.
#[test]
fn selection_and_cost_model_agree_on_p() {
    let cm = CostModel::from_profile(80, &HardwareProfile::tennessee_2006());
    let m = cm.buffers_for_memory(512 * 1024 * 1024);
    let mu = MemoryLayout::MaxReuseOverlapped.mu(m);
    let params = WorkerParams::new(cm.c(), cm.w(), m);
    let sel = select_homogeneous(&params, 64, 1000, 1000);
    assert_eq!(sel.workers, ideal_worker_count(mu, cm.w(), cm.c()));
    assert_eq!(sel.chunk_side, mu);
}
