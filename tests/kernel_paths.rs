//! Every compute path — the serial product, both master-worker
//! matrix runtimes, and the threaded LU — runs the kernel it is handed,
//! and all of them cross-validate against the independent naive oracle
//! under every kernel this CPU runs: each fleet is built with
//! [`RuntimeSession::with_kernels`], and every reference it is compared
//! against is computed through the same kernel. Block sides are chosen to
//! hit both the aligned case and the tails of each SIMD register tile —
//! 4 × 8 for AVX2, 8 × 16 for AVX-512 (q = 15, 17, 25 and 33 leave a row
//! and a column stripe partial on every update under both; q = 16 is
//! aligned under both).

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::gemm::{gemm_serial_oracle, gemm_serial_with, verify_product};
use mwp_blockmat::kernel::{self, available, Kernel};
use mwp_blockmat::lu::{lu_blocked_in_place, lu_blocked_with, scaled_residual, Dense};
use mwp_msg::TransportMode;

/// A channel fleet for `platform` whose every worker computes with `kernel`.
fn fleet(platform: &Platform, kernel: &'static Kernel) -> RuntimeSession {
    RuntimeSession::with_kernels(platform, 0.0, TransportMode::Channel, &vec![kernel; platform.len()])
}

/// Aligned (q = 8, 16) and tail (q = 15, 17, 25, 33) block sides: the threaded HoLM
/// runtime must agree with the serial product bit for bit (same kernel,
/// same per-block accumulation order) and with the naive oracle within
/// rounding.
#[test]
fn run_holm_cross_validates_on_aligned_and_tail_sizes() {
    let platform = Platform::homogeneous(4, 4.0, 1.0, 60).unwrap();
    for kernel in available() {
        let session = fleet(&platform, kernel);
        for q in [8usize, 15, 16, 17, 25, 33] {
            let a = random_matrix(5, 7, q, 301);
            let b = random_matrix(7, 9, q, 302);
            let c0 = random_matrix(5, 9, q, 303);

            let mut serial = c0.clone();
            gemm_serial_with(kernel, &mut serial, &a, &b);

            let out = session.run_holm(&a, &b, c0.clone()).unwrap();
            assert_eq!(
                out.c.max_abs_diff(&serial),
                0.0,
                "{} q = {q}: runtime and serial product must be bit-identical",
                kernel.name()
            );
            // And against the independent oracle, within a rounding tolerance.
            verify_product(&out.c, &c0, &a, &b, 1e-9)
                .unwrap_or_else(|e| panic!("{} q = {q}: runtime off the oracle by {e}", kernel.name()));
        }
        assert_eq!(session.shutdown(), 4);
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

    for kernel in available() {
        let mut serial = c0.clone();
        gemm_serial_with(kernel, &mut serial, &a, &b);

        let session = fleet(&platform, kernel);
        let out = session.run_heterogeneous(&a, &b, c0.clone(), SelectionRule::Global).unwrap();
        assert_eq!(out.c.max_abs_diff(&serial), 0.0, "{}", kernel.name());
        verify_product(&out.c, &c0, &a, &b, 1e-9)
            .unwrap_or_else(|e| panic!("{}: heterogeneous runtime off the oracle by {e}", kernel.name()));
        assert_eq!(session.shutdown(), 3);
    }
}

/// The threaded LU runtime (whose trailing updates run the workers'
/// kernel as block products) reconstructs L·U ≈ A on aligned and tail block
/// sides, to within the rounding an `n`-term factorization may carry
/// (`lu::scaled_residual` ≤ 1).
#[test]
fn run_lu_reconstructs_on_aligned_and_tail_sizes() {
    let platform = Platform::homogeneous(3, 2.0, 1.0, 60).unwrap();
    for kernel in available() {
        let session = fleet(&platform, kernel);
        for (n_blocks, q) in [(3usize, 8usize), (2, 17), (3, 25), (2, 33)] {
            let m = random_diagonally_dominant(n_blocks, q, 331);
            let out = factor(&session, &m, 1);
            assert!(!out.aborted);
            let residual = scaled_residual(&out.packed, &Dense::from_blocks(&m));
            assert!(residual <= 1.0, "{} q = {q}: ‖L·U − A‖ is {residual} × (‖A‖ · n · ε)", kernel.name());
        }
        assert_eq!(session.shutdown(), 3);
    }
}

/// At the benchmark's shape — 12 blocks of q = 80 in steps of µ = 2, so
/// 160-wide pivots over 800- to 160-row panels — the threaded runtime
/// ships each panel to a worker as a contiguous matrix and runs each
/// trailing update as q-deep block products, while `lu_blocked_in_place`
/// runs the same blocked kernels through leading dimensions and updates
/// its trailing matrix whole: the factors must be the same bits whatever
/// the fleet size (1 worker takes every op, 3 leave bands uneven) and
/// transport. The fastest kernel only: at this size unoptimized test
/// builds factor slowly.
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
                    let session = RuntimeSession::with_transport(&platform, 0.0, mode);
                    let out = factor(&session, matrix, 2);
                    assert!(!out.aborted);
                    assert_eq!(out.workers_used, p);
                    assert!(out.packed == *serial, "{p} workers over {mode:?} diverge from serial");
                    assert_eq!(session.shutdown(), p);
                }
            });
        }
    });
}

/// The serial product through each kernel agrees with the naive oracle
/// within `t·q · ‖A‖ · ‖B‖ · ε` on a tail size.
#[test]
fn dispatched_product_matches_oracle_on_tail_size() {
    let q = 33;
    let (r, t, s) = (3usize, 4usize, 5usize);
    let a = random_matrix(r, t, q, 341);
    let b = random_matrix(t, s, q, 342);
    let c0 = random_matrix(r, s, q, 343);
    let mut oracle = c0.clone();
    gemm_serial_oracle(&mut oracle, &a, &b);
    let tol = 4.0 * (t * q) as f64 * f64::EPSILON; // entries are in [-1, 1]
    for kernel in available() {
        let mut fast = c0.clone();
        gemm_serial_with(kernel, &mut fast, &a, &b);
        let err = fast.max_abs_diff(&oracle);
        assert!(err <= tol, "kernel {} diverges from the oracle: {err} > {tol}", kernel.name());
    }
}

/// A fleet of `scalar` workers is scalar in every arm of the worker
/// program — B packs, block updates, and LU's pivot factor and panel
/// solves: its HoLM product and its LU factors are the serial references
/// computed through `scalar`, bit for bit. Where a SIMD kernel runs, its
/// references differ from scalar's in the last bits (FMA), so the
/// comparison shows which kernel each arm ran.
#[test]
fn a_scalar_fleet_is_scalar_end_to_end() {
    let scalar = kernel::by_name("scalar").expect("scalar is always available");
    let platform = Platform::homogeneous(3, 1.0, 1.0, 60).unwrap();
    let session = fleet(&platform, scalar);
    let q = 17;
    let (a, b, c0) = (random_matrix(5, 7, q, 351), random_matrix(7, 9, q, 352), random_matrix(5, 9, q, 353));
    let mut serial = c0.clone();
    gemm_serial_with(scalar, &mut serial, &a, &b);
    let product = session.run_holm(&a, &b, c0.clone()).unwrap().c;
    assert_eq!(product.max_abs_diff(&serial), 0.0, "HoLM on scalar workers");

    // Pivots of 2 × 17 = 34 rows: wider than the factor's diagonal block,
    // so the pivot factor runs the gemm kernel too, not just row-axpys.
    let matrix = random_diagonally_dominant(5, q, 354);
    let mut factors = Dense::from_blocks(&matrix);
    lu_blocked_with(scalar, &mut factors, 2 * q);
    let out = factor(&session, &matrix, 2);
    assert!(!out.aborted);
    assert!(out.packed == factors, "LU on scalar workers");
    assert_eq!(session.shutdown(), 3);

    let fastest = kernel::active();
    if fastest.name() != "scalar" {
        let mut simd = c0;
        gemm_serial_with(fastest, &mut simd, &a, &b);
        assert_ne!(simd.max_abs_diff(&serial), 0.0, "{} and scalar products share bits", fastest.name());
        let mut simd = Dense::from_blocks(&matrix);
        lu_blocked_with(fastest, &mut simd, 2 * q);
        assert!(simd != factors, "{} and scalar factors share bits", fastest.name());
    }
}

/// The paper's §6 platform on real arithmetic: one `avx512` and one
/// `avx2` worker, ≈ 1.7× apart in speed. The two kernels accumulate every
/// element as the same chain of FMAs, so HoLM, the two-phase scheme and
/// LU — whose pivot chain runs on worker 0, the `avx512` one — return an
/// all-`avx2` fleet's bits. Self-skips without `avx512f`.
#[test]
fn a_mixed_width_fleet_returns_a_homogeneous_fleets_bits() {
    let (Ok(avx2), Ok(avx512)) = (kernel::by_name("avx2"), kernel::by_name("avx512")) else { return };
    let homogeneous = Platform::homogeneous(2, 1.0, 1.0, 60).unwrap();
    // Model speeds that match the kernels', and unequal memories.
    let two_speeds = Platform::new(vec![WorkerParams::new(1.0, 1.0, 60), WorkerParams::new(1.0, 1.7, 140)]).unwrap();
    let q = 17;
    let (a, b, c0) = (random_matrix(10, 4, q, 361), random_matrix(4, 13, q, 362), random_matrix(10, 13, q, 363));
    let matrix = random_diagonally_dominant(5, q, 364);
    let run = |kernels: &[&'static Kernel]| {
        let session = RuntimeSession::with_kernels(&homogeneous, 0.0, TransportMode::Channel, kernels);
        let holm = session.run_holm(&a, &b, c0.clone()).unwrap();
        let lu = factor(&session, &matrix, 2);
        session.shutdown();
        let session = RuntimeSession::with_kernels(&two_speeds, 0.0, TransportMode::Channel, kernels);
        let two_phase = session.run_heterogeneous(&a, &b, c0.clone(), SelectionRule::Global).unwrap();
        session.shutdown();
        assert_eq!((holm.workers_used, two_phase.workers_used), (2, 2), "both kernels take work");
        (holm.c, two_phase.c, lu.packed)
    };
    let (holm, two_phase, lu) = run(&[avx512, avx2]);
    let want = run(&[avx2, avx2]);
    assert_eq!(holm.max_abs_diff(&want.0), 0.0, "run_holm");
    assert_eq!(two_phase.max_abs_diff(&want.1), 0.0, "run_heterogeneous");
    assert!(lu == want.2, "factor");
}
