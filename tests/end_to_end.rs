//! End-to-end pipelines: generate a platform, select resources, simulate,
//! execute for real, verify numerics.

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::gemm::verify_product;
use mwp_platform::generator::{HeterogeneityProfile, PlatformGenerator};

/// The full homogeneous pipeline of the paper, at test scale.
#[test]
fn homogeneous_pipeline() {
    // 1. Calibrated platform.
    let cm = CostModel::from_profile(8, &HardwareProfile::tennessee_2006());
    let platform = Platform::homogeneous(6, cm.c(), cm.w(), 60).unwrap();

    // 2. Resource selection.
    let params = platform.homogeneous_params().unwrap();
    let sel = select_homogeneous(&params, platform.len(), 12, 18);
    assert!(sel.workers >= 1 && sel.workers <= 6);

    // 3. Simulate all seven algorithms; all must complete the work.
    let problem = Partition::from_blocks(12, 18, 10, 8);
    for kind in AlgorithmKind::ALL {
        let report = simulate(kind, &platform, &problem).unwrap();
        assert_eq!(report.total_updates(), problem.total_updates(), "{}", kind.name());
    }

    // 4. Execute HoLM for real and verify the product.
    let a = random_matrix(12, 10, 8, 1);
    let b = random_matrix(10, 18, 8, 2);
    let c0 = random_matrix(12, 18, 8, 3);
    let out = run_holm(&platform, &a, &b, c0.clone(), 0.0).unwrap();
    assert!(verify_product(&out.c, &c0, &a, &b, 1e-9).is_ok());
    assert_eq!(out.workers_used, sel.workers);
}

/// Heterogeneous pipeline: generated platform → steady state → incremental
/// selection → simulated execution.
#[test]
fn heterogeneous_pipeline() {
    use mwp_core::algorithms::heterogeneous::simulate_heterogeneous;
    let gen = PlatformGenerator::new(2.0, 2.0, 150, HeterogeneityProfile::strong());
    for seed in 0..5 {
        let platform = gen.generate(5, seed);
        let ss = steady_state(&platform);
        assert!(ss.throughput > 0.0);
        let problem = Partition::from_blocks(30, 30, 50, 80);
        let report = simulate_heterogeneous(&platform, &problem, SelectionRule::Global)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.total_updates() > 0);
        assert!(
            report.throughput() <= ss.throughput * 1.001,
            "seed {seed}: throughput above the steady-state bound"
        );
    }
}

/// LU pipeline: cost model → µ search → simulation → numerics.
#[test]
fn lu_pipeline() {
    use mwp_lu::cost::LuProblem;
    use mwp_lu::heterogeneous::best_pivot_size;
    use mwp_lu::homogeneous::simulate_homogeneous_lu;
    use mwp_lu::single::verify;

    let platform = Platform::homogeneous(4, 1.0, 2.0, 200).unwrap();
    let (mu, _) = best_pivot_size(&platform, 24);
    assert!(mu >= 1 && 24 % mu == 0);

    let problem = LuProblem::new(24, mu.clamp(2, 12));
    let (report, enrolled) = simulate_homogeneous_lu(&platform, problem).unwrap();
    assert!(enrolled >= 1);
    assert!(report.makespan.value() > 0.0);

    // Real factorization with the same second-level blocking.
    let matrix = random_diagonally_dominant(6, 4, 123);
    let err = verify(&matrix, 2, 1e-8).expect("factorization accurate");
    assert!(err < 1e-8);
}

/// The facade's prelude exposes a coherent API (compile-time test mostly).
#[test]
fn prelude_is_usable() {
    let plan = MemoryPlan::derive(MemoryLayout::MaxReuseOverlapped, 60);
    assert_eq!(plan.mu, 6);
    let platform = Platform::homogeneous(2, 1.0, 1.0, 60).unwrap();
    assert_eq!(platform.len(), 2);
    assert!(bounds::max_reuse_optimality_gap() < 1.1);
    let trace = run_selection(&platform, SelectionRule::Global, 6, 6, 2);
    assert!(trace.columns_filled >= 6);
}
