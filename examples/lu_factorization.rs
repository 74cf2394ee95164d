//! The Section 7 LU extension: cost model, resource selection, pivot-size
//! search, and a numerically verified factorization.
//!
//! ```text
//! cargo run --release --example lu_factorization
//! ```

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::random_diagonally_dominant;
use mwp_blockmat::lu::{reconstruct, Dense};
use mwp_lu::cost::LuProblem;
use mwp_lu::heterogeneous::{best_pivot_size, chunk_shape, ChunkShape};
use mwp_lu::homogeneous::{ideal_lu_workers, simulate_homogeneous_lu};
use mwp_lu::single::factor_single;

fn main() {
    // ------------------------------------------------------------------
    // 1. Cost model: where does the time go?
    // ------------------------------------------------------------------
    let problem = LuProblem::new(120, 6);
    let total = problem.total();
    println!(
        "LU of a {0}x{0}-block matrix with µ = {1}:",
        problem.r, problem.mu
    );
    println!(
        "  comm {:.0} blocks (closed form r³/µ + r² = {:.0}; paper's slip would give {:.0})",
        total.comm,
        total.comm_closed_form_exact(),
        total.comm_closed_form_paper()
    );
    println!(
        "  comp {:.0} block-ops, {:.0}% of it in the parallelizable core update",
        total.comp,
        100.0 * total.core_comp / total.comp
    );

    // ------------------------------------------------------------------
    // 2. Homogeneous cluster: P = ceil(µw/3c), then simulate.
    // ------------------------------------------------------------------
    let (c, w) = (0.5, 4.0);
    let p = ideal_lu_workers(problem.mu, w, c);
    println!("\nhomogeneous cluster (c = {c}, w = {w}): enroll P = {p} workers");
    let platform = Platform::homogeneous(p.min(16), c, w, 200).expect("valid platform");
    let (report, enrolled) = simulate_homogeneous_lu(&platform, problem).expect("simulation");
    println!(
        "  simulated makespan {:.0} with {enrolled} workers, port busy {:.0}%",
        report.makespan.value(),
        100.0 * report.port_utilization()
    );

    // ------------------------------------------------------------------
    // 3. Heterogeneous: chunk shapes, and the exhaustive µ search that
    //    replays the runtime's schedule at every divisor of r.
    // ------------------------------------------------------------------
    let het = Platform::new(vec![
        WorkerParams::new(1.0, 1.0, 400),
        WorkerParams::new(1.5, 0.8, 300),
        WorkerParams::new(2.0, 1.2, 500),
    ])
    .expect("valid platform");
    println!("\nchunk shapes at µ = 10 for under-provisioned workers:");
    for mu_i in [3, 5, 7, 10] {
        let shape = chunk_shape(mu_i, 10);
        let label = match shape {
            ChunkShape::Square => "square µ_i × µ_i",
            ChunkShape::WholeColumns => "whole columns",
        };
        println!("  µ_i = {mu_i}: {label}");
    }
    let (best_mu, makespan) = best_pivot_size(&het, 60);
    println!(
        "exhaustive µ search on the heterogeneous platform: µ* = {best_mu} \
         (its schedule replays in {makespan:.0})"
    );

    // ------------------------------------------------------------------
    // 4. Real arithmetic: factor and verify.
    // ------------------------------------------------------------------
    let matrix = random_diagonally_dominant(6, 10, 42); // 60×60 elements
    let packed = factor_single(&matrix, 2);
    let err = reconstruct(&packed).max_abs_diff(&Dense::from_blocks(&matrix));
    println!("\nnumeric check: ‖L·U − A‖_max = {err:.2e}");
    assert!(err < 1e-8, "factorization must be accurate");
}
