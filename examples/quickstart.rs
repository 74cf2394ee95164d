//! Quickstart: simulate the paper's homogeneous algorithm, then run the
//! same schedule for real (threads + message layer + actual block GEMMs)
//! and verify the numerical result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::random_matrix;
use mwp_blockmat::gemm::verify_product;

fn main() {
    // ------------------------------------------------------------------
    // 1. A calibrated platform: 8 Xeon-class workers on 100 Mbps links.
    // ------------------------------------------------------------------
    let cm = CostModel::from_profile(80, &HardwareProfile::tennessee_2006());
    let m = cm.buffers_for_memory(132 * 1024 * 1024); // 132 MB of buffers
    let platform = Platform::homogeneous(8, cm.c(), cm.w(), m)
        .expect("calibrated platform is valid");
    println!(
        "platform: 8 workers, c = {:.3} ms/block, w = {:.3} ms/update, m = {m} buffers",
        cm.c() * 1e3,
        cm.w() * 1e3,
    );

    // ------------------------------------------------------------------
    // 2. Resource selection: which workers does the paper enroll?
    // ------------------------------------------------------------------
    let params = platform.homogeneous_params().expect("homogeneous");
    let sel = select_homogeneous(&params, platform.len(), 100, 800);
    println!(
        "resource selection: P = {} workers, chunk side µ = {} blocks",
        sel.workers, sel.chunk_side
    );

    // ------------------------------------------------------------------
    // 3. Simulate HoLM on the paper's first Figure 10 matrix.
    // ------------------------------------------------------------------
    let problem = Partition::from_dims(8_000, 8_000, 64_000, 80);
    let report = simulate(AlgorithmKind::HoLM, &platform, &problem).expect("simulation");
    println!(
        "simulated {problem}: makespan {:.0} s, port busy {:.0}%, CCR {:.4} \
         (formula 2/t + 2/µ = {:.4})",
        report.makespan.value(),
        100.0 * report.port_utilization(),
        report.measured_ccr(),
        bounds::ccr_max_reuse(sel.chunk_side, problem.t),
    );

    // ------------------------------------------------------------------
    // 4. Execute a smaller product for real and verify it.
    // ------------------------------------------------------------------
    let q = 40;
    let a = random_matrix(8, 8, q, 1);
    let b = random_matrix(8, 16, q, 2);
    let c0 = random_matrix(8, 16, q, 3);
    let small = Platform::homogeneous(4, 1e-3, 1e-4, 60).expect("valid");
    let out = run_holm(&small, &a, &b, c0.clone(), 0.0).expect("runtime");
    match verify_product(&out.c, &c0, &a, &b, 1e-9) {
        Ok(err) => println!(
            "threaded runtime: {} blocks moved by {} workers in {:?}; result verified \
             (max abs error {err:.2e})",
            out.blocks_moved, out.workers_used, out.wall
        ),
        Err(err) => panic!("runtime produced a wrong product (error {err})"),
    }
}
