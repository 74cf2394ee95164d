//! Every compute path — the serial product, both master-worker
//! matrix runtimes, and the threaded LU — runs the same dispatched block
//! kernel, and all of them cross-validate against the independent naive
//! oracle. Block sides are chosen to hit both the aligned case and the
//! tails of each SIMD register tile — 4 × 8 for AVX2, 8 × 16 for AVX-512
//! (q = 15, 17, 25 and 33 leave a row and a column stripe partial on
//! every update under both; q = 16 is aligned under both).

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::gemm::{gemm_serial, gemm_serial_oracle, verify_product};
use mwp_blockmat::kernel;
use mwp_blockmat::lu::{lu_blocked_in_place, scaled_residual, Dense};
use mwp_lu::runtime::{run_lu, LuSession};
use mwp_msg::TransportMode;

/// Aligned (q = 8, 16) and tail (q = 15, 17, 25, 33) block sides: the threaded HoLM
/// runtime must agree with the serial product bit for bit (same kernel,
/// same per-block accumulation order) and with the naive oracle within
/// rounding.
#[test]
fn run_holm_cross_validates_on_aligned_and_tail_sizes() {
    let platform = Platform::homogeneous(4, 4.0, 1.0, 60).unwrap();
    for q in [8usize, 15, 16, 17, 25, 33] {
        let a = random_matrix(5, 7, q, 301);
        let b = random_matrix(7, 9, q, 302);
        let c0 = random_matrix(5, 9, q, 303);

        let mut serial = c0.clone();
        gemm_serial(&mut serial, &a, &b);

        let out = run_holm(&platform, &a, &b, c0.clone(), 0.0).unwrap();
        assert_eq!(
            out.c.max_abs_diff(&serial),
            0.0,
            "q = {q}: runtime and serial product must be bit-identical"
        );
        // And against the independent oracle, within a rounding tolerance.
        verify_product(&out.c, &c0, &a, &b, 1e-9)
            .unwrap_or_else(|e| panic!("q = {q}: runtime off the oracle by {e}"));
    }
}

/// The heterogeneous two-phase runtime on a tail block side.
#[test]
fn run_heterogeneous_cross_validates_on_tail_size() {
    let platform = Platform::new(vec![
        WorkerParams::new(2.0, 2.0, 60),
        WorkerParams::new(3.0, 3.0, 396),
        WorkerParams::new(5.0, 1.0, 140),
    ])
    .unwrap();
    let q = 33;
    let (r, t, s) = (10, 4, 13);
    let a = random_matrix(r, t, q, 311);
    let b = random_matrix(t, s, q, 312);
    let c0 = random_matrix(r, s, q, 313);

    let mut serial = c0.clone();
    gemm_serial(&mut serial, &a, &b);

    let out = run_heterogeneous(&platform, &a, &b, c0.clone(), SelectionRule::Global, 0.0)
        .unwrap();
    assert_eq!(out.c.max_abs_diff(&serial), 0.0);
    verify_product(&out.c, &c0, &a, &b, 1e-9)
        .unwrap_or_else(|e| panic!("heterogeneous runtime off the oracle by {e}"));
}

/// The threaded LU runtime (whose rank-µ core updates run the dispatched
/// kernel with alpha = −1) reconstructs L·U ≈ A on aligned and tail block
/// sides, to within the rounding an `n`-term factorization may carry
/// (`lu::scaled_residual` ≤ 1).
#[test]
fn run_lu_reconstructs_on_aligned_and_tail_sizes() {
    let platform = Platform::homogeneous(3, 2.0, 1.0, 60).unwrap();
    for (n_blocks, q) in [(3usize, 8usize), (2, 17), (3, 25), (2, 33)] {
        let m = random_diagonally_dominant(n_blocks, q, 331);
        let out = run_lu(&platform, &m, 1, 0.0);
        let residual = scaled_residual(&out.packed, &Dense::from_blocks(&m));
        assert!(residual <= 1.0, "q = {q}: ‖L·U − A‖ is {residual} × (‖A‖ · n · ε)");
    }
}

/// At the benchmark's shape — 12 blocks of q = 80 in steps of µ = 2, so
/// 160-wide pivots over 800- to 160-row panels — the threaded runtime
/// ships each panel to a worker as a contiguous matrix while
/// `lu_blocked_in_place` runs the same blocked kernels through leading
/// dimensions: the factors must be the same bits whatever the fleet size
/// (1 worker takes every op, 3 leave row groups uneven) and transport.
#[test]
fn run_lu_is_bit_identical_to_serial_blocked_at_the_perf_shape() {
    let matrix = random_diagonally_dominant(12, 80, 2007);
    let mut serial = Dense::from_blocks(&matrix);
    lu_blocked_in_place(&mut serial, 2 * 80);
    // One thread per transport: unoptimized test builds factor slowly.
    std::thread::scope(|scope| {
        for mode in [TransportMode::Channel, TransportMode::Tcp] {
            let (matrix, serial) = (&matrix, &serial);
            scope.spawn(move || {
                for p in 1..=3 {
                    let platform = Platform::homogeneous(p, 1.0, 1.0, 100_000).unwrap();
                    let session = LuSession::with_transport(&platform, 0.0, mode);
                    let out = session.run(matrix, 2);
                    assert!(!out.aborted);
                    assert_eq!(out.workers_used, p);
                    assert!(out.packed == *serial, "{p} workers over {mode:?} diverge from serial");
                    assert_eq!(session.shutdown(), p);
                }
            });
        }
    });
}

/// The serial product through the dispatched kernel agrees with the naive
/// oracle within `t·q · ‖A‖ · ‖B‖ · ε` on a tail size — whichever kernel
/// the dispatcher picked on this machine (the MWP_KERNEL=scalar CI job
/// covers the forced-fallback configuration; the kernel unit tests pit
/// every runnable kernel against the oracle explicitly).
#[test]
fn dispatched_product_matches_oracle_on_tail_size() {
    let q = 33;
    let (r, t, s) = (3usize, 4usize, 5usize);
    let a = random_matrix(r, t, q, 341);
    let b = random_matrix(t, s, q, 342);
    let c0 = random_matrix(r, s, q, 343);
    let mut fast = c0.clone();
    gemm_serial(&mut fast, &a, &b);
    let mut oracle = c0.clone();
    gemm_serial_oracle(&mut oracle, &a, &b);
    let tol = 4.0 * (t * q) as f64 * f64::EPSILON; // entries are in [-1, 1]
    let err = fast.max_abs_diff(&oracle);
    assert!(
        err <= tol,
        "kernel {} diverges from the oracle: {err} > {tol}",
        kernel::active().name()
    );
}
