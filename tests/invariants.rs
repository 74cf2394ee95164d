//! Property-based invariants across crates: for randomized platforms and
//! problems, every algorithm preserves the model's laws.

use master_worker_matrix::prelude::*;
use mwp_core::algorithms::simulate_traced;
use proptest::prelude::*;

fn small_problem() -> impl Strategy<Value = Partition> {
    (1usize..8, 1usize..8, 1usize..8)
        .prop_map(|(r, s, t)| Partition::from_blocks(r, s, t, 80))
}

fn small_platform() -> impl Strategy<Value = Platform> {
    (1usize..5, 1u32..6, 1u32..6, 12usize..200).prop_map(|(p, c, w, m)| {
        Platform::homogeneous(p, c as f64, w as f64, m).expect("valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every algorithm computes exactly r·s·t block updates and returns
    /// every C block exactly once, on any platform/problem combination.
    #[test]
    fn work_conservation(pf in small_platform(), pr in small_problem()) {
        for kind in AlgorithmKind::ALL {
            let report = match simulate(kind, &pf, &pr) {
                Ok(r) => r,
                // Tiny memories can be legitimately rejected.
                Err(mwp_core::algorithms::AlgoError::MemoryTooSmall { .. }) => continue,
                Err(e) => return Err(TestCaseError::fail(format!("{}: {e}", kind.name()))),
            };
            prop_assert_eq!(report.total_updates(), pr.total_updates(),
                "{} lost updates", kind.name());
            prop_assert_eq!(report.blocks_received, (pr.r * pr.s) as u64,
                "{} returned wrong C volume", kind.name());
        }
    }

    /// The one-port property holds in every trace: no two port activities
    /// overlap, and no worker computes two things at once.
    #[test]
    fn one_port_never_violated(pf in small_platform(), pr in small_problem()) {
        for kind in [AlgorithmKind::HoLM, AlgorithmKind::ODDOML, AlgorithmKind::BMM] {
            let report = match simulate_traced(kind, &pf, &pr) {
                Ok(r) => r,
                Err(_) => continue,
            };
            prop_assert!(report.trace.check_no_overlap().is_ok(),
                "{} violated resource exclusivity", kind.name());
        }
    }

    /// Makespan is bounded below by both the port bound (all blocks at c)
    /// and the compute bound (all updates spread over all workers).
    #[test]
    fn makespan_lower_bounds(pf in small_platform(), pr in small_problem()) {
        let params = pf.homogeneous_params().unwrap();
        for kind in AlgorithmKind::ALL {
            let report = match simulate(kind, &pf, &pr) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let port_lb = (report.blocks_sent + report.blocks_received) as f64 * params.c;
            let comp_lb = pr.total_updates() as f64 * params.w / pf.len() as f64;
            let makespan = report.makespan.value();
            prop_assert!(makespan >= port_lb * 0.999,
                "{}: makespan {makespan} below port bound {port_lb}", kind.name());
            prop_assert!(makespan >= comp_lb * 0.999,
                "{}: makespan {makespan} below compute bound {comp_lb}", kind.name());
        }
    }

    /// In the full-µ regime HoLM never uses more workers than ORROML (in
    /// the small-matrix regime it may legitimately use *more*: it shrinks
    /// chunks to ν to keep several workers busy where ORROML would put
    /// the single undersized chunk on one worker). Work conservation
    /// holds in every regime.
    #[test]
    fn holm_is_thrifty(pf in small_platform(), pr in small_problem()) {
        let holm = match simulate(AlgorithmKind::HoLM, &pf, &pr) {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        let orro = simulate(AlgorithmKind::ORROML, &pf, &pr).expect("same layout fits");
        let params = pf.homogeneous_params().unwrap();
        let sel = select_homogeneous(&params, pf.len(), pr.r, pr.s);
        if sel.full_mu_regime {
            prop_assert!(holm.workers_used() <= orro.workers_used());
        }
        prop_assert!(holm.total_updates() == orro.total_updates());
    }

    /// The toy-model heuristics always schedule all r·s tasks, and the
    /// alternating greedy bound of Proposition 1 holds against Thrifty
    /// restricted to one worker.
    #[test]
    fn toy_heuristics_complete(r in 1usize..5, s in 1usize..5, p in 1usize..4,
                               c in 1u32..8, w in 1u32..8) {
        use mwp_core::toy::{min_min, thrifty, ToyInstance};
        let inst = ToyInstance { r, s, p, c: c as f64, w: w as f64 };
        let t = thrifty(&inst);
        let m = min_min(&inst);
        prop_assert_eq!(t.tasks_done(), r * s);
        prop_assert_eq!(m.tasks_done(), r * s);
        prop_assert!(t.makespan() > 0.0 && m.makespan() > 0.0);
    }
}
