//! Transport cross-validation: the loopback socket backends (TCP, and
//! Unix-domain sockets where available) must produce **bit-identical**
//! results to the in-process channel transport on every runtime — HoLM,
//! the heterogeneous two-phase scheme, the threaded LU, and a fused
//! serving batch — with identical traffic accounting, and an aborted run
//! must leave a socket session as serviceable as a channel one. The
//! transports share every line of master and worker compute code; only
//! the bytes' route differs, so any divergence is a framing bug by
//! construction.
//!
//! The transport is a constructor argument ([`TransportMode`]), so all
//! backends are compared inside one process. No CI leg re-runs the suite
//! per transport: what crosses a socket is asserted here, in
//! `mwp-msg`'s own loopback tests, and over real worker processes in
//! `crates/worker/tests`. Nor per kernel: the HoLM and LU comparisons run
//! once per kernel this CPU runs, every worker built with it.

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::gemm::gemm_serial_with;
use mwp_blockmat::kernel::{available, Kernel};
use mwp_core::runtime::RuntimeError;
use mwp_core::serving::{JobSpec, MatrixServer};
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::factor;
use mwp_msg::TransportMode;
use std::time::Duration;

/// A fleet for `platform` over `mode` whose every worker computes with
/// `kernel`.
fn fleet(platform: &Platform, mode: TransportMode, kernel: &'static Kernel) -> RuntimeSession {
    RuntimeSession::with_kernels(platform, 0.0, mode, &vec![kernel; platform.len()])
}

/// The socket modes this platform can run.
fn socket_modes() -> Vec<TransportMode> {
    let mut modes = vec![TransportMode::Tcp];
    if cfg!(unix) {
        modes.push(TransportMode::Uds);
    }
    modes
}

#[test]
fn holm_over_sockets_matches_channels_bitwise() {
    let platform = Platform::homogeneous(4, 4.0, 1.0, 60).unwrap();
    for kernel in available() {
        let channel = fleet(&platform, TransportMode::Channel, kernel);
        for mode in socket_modes() {
            let socket = fleet(&platform, mode, kernel);
            // Consecutive runs on one socket session, with a q change in the
            // middle (scratch reset on the far side of a real socket).
            for (round, q) in [(0u64, 8usize), (1, 8), (2, 33)] {
                let a = random_matrix(5, 7, q, 131 + round);
                let b = random_matrix(7, 9, q, 141 + round);
                let c0 = random_matrix(5, 9, q, 151 + round);
                let what = format!("{} {mode:?} round {round} (q = {q})", kernel.name());
                let over_socket = socket.run_holm(&a, &b, c0.clone()).unwrap();
                let over_channel = channel.run_holm(&a, &b, c0.clone()).unwrap();
                assert_eq!(over_socket.c.max_abs_diff(&over_channel.c), 0.0, "{what}: socket vs channel bits");
                assert_eq!(over_socket.blocks_moved, over_channel.blocks_moved, "{what}");
                assert_eq!(over_socket.workers_used, over_channel.workers_used, "{what}");
                assert_eq!(over_socket.chunk_side, over_channel.chunk_side, "{what}");

                // And both match the serial product bit-for-bit.
                let mut serial = c0;
                gemm_serial_with(kernel, &mut serial, &a, &b);
                assert_eq!(over_socket.c.max_abs_diff(&serial), 0.0, "{what} vs serial");
            }
            assert_eq!(socket.shutdown(), 4);
        }
        channel.shutdown();
    }
}

#[test]
fn heterogeneous_over_tcp_matches_channels_bitwise() {
    let platform = Platform::new(vec![
        WorkerParams::new(2.0, 2.0, 60),
        WorkerParams::new(3.0, 3.0, 396),
        WorkerParams::new(5.0, 1.0, 140),
    ])
    .unwrap();
    let channel = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
    let socket = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Tcp);
    let q = 4;
    for rule in [SelectionRule::Global, SelectionRule::Local] {
        let a = random_matrix(10, 4, q, 161);
        let b = random_matrix(4, 13, q, 171);
        let c0 = random_matrix(10, 13, q, 181);
        let over_socket = socket.run_heterogeneous(&a, &b, c0.clone(), rule).unwrap();
        let over_channel = channel.run_heterogeneous(&a, &b, c0, rule).unwrap();
        assert_eq!(
            over_socket.c.max_abs_diff(&over_channel.c),
            0.0,
            "{rule:?}: heterogeneous socket vs channel bits"
        );
        assert_eq!(over_socket.blocks_moved, over_channel.blocks_moved, "{rule:?}");
        assert_eq!(over_socket.workers_used, over_channel.workers_used, "{rule:?}");
    }
    socket.shutdown();
    channel.shutdown();
}

#[test]
fn lu_over_sockets_matches_channels_bitwise() {
    let platform = Platform::homogeneous(3, 1.0, 1.0, 1000).unwrap();
    for kernel in available() {
        let channel = fleet(&platform, TransportMode::Channel, kernel);
        for mode in socket_modes() {
            let socket = fleet(&platform, mode, kernel);
            for (round, (r, q, mu)) in [(0u64, (4usize, 6usize, 2usize)), (1, (4, 6, 1)), (2, (3, 5, 2))] {
                let matrix = random_diagonally_dominant(r, q, 191 + round);
                let what = format!("{} {mode:?} round {round}", kernel.name());
                let over_socket = factor(&socket, &matrix, mu);
                let over_channel = factor(&channel, &matrix, mu);
                assert_eq!(
                    over_socket.packed.max_abs_diff(&over_channel.packed),
                    0.0,
                    "{what}: LU socket vs channel bits"
                );
                assert_eq!(over_socket.messages, over_channel.messages, "{what}");
            }
            assert_eq!(socket.shutdown(), 3);
        }
        channel.shutdown();
    }
}

#[test]
fn a_serving_batch_over_sockets_matches_solo_channel_runs_bitwise() {
    // One dispatcher: a long lead job plugs it while the small jobs pile
    // up behind, so its next pop fuses them into one composite run — tag
    // offsets, several generations' frames and the split-back all through
    // a real socket.
    let platform = Platform::homogeneous(3, 4.0, 1.0, 60).unwrap();
    let job = |(r, t, s): (usize, usize, usize), q, seed| JobSpec {
        a: random_matrix(r, t, q, seed),
        b: random_matrix(t, s, q, seed + 1),
        c: random_matrix(r, s, q, seed + 2),
        select: false,
    };
    let mut jobs = vec![job((12, 10, 12), 8, 500)];
    jobs.extend((0..4).map(|j| job((4, 3, 5), 4, 600 + 10 * j)));
    let channel = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
    let solo: Vec<_> = jobs
        .iter()
        .map(|spec| channel.run_all_workers(&spec.a, &spec.b, spec.c.clone()).unwrap().c)
        .collect();
    channel.shutdown();
    for mode in socket_modes() {
        let session = RuntimeSession::with_transport(&platform, 0.0, mode);
        let server = MatrixServer::with_options(session, 1, true);
        let handles: Vec<_> = jobs.iter().map(|spec| server.submit(spec.clone())).collect();
        let done: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
        for (completed, solo) in done.iter().zip(&solo) {
            let got = completed.result.as_ref().unwrap();
            assert_eq!(got.c.max_abs_diff(solo), 0.0, "{mode:?}: served vs solo bits");
        }
        let fused = done.iter().filter(|c| c.report.batched_with > 0).count();
        assert!(fused >= 2, "{mode:?}: queued small-q jobs must fuse ({fused} batched)");
        assert_eq!(server.dead_workers(), 0, "{mode:?}");
        server.shutdown();
    }
}

#[test]
fn a_run_budget_aborts_a_paced_run_and_lifting_it_restores_bit_identity() {
    // The abort contract without worker processes, on every transport,
    // for a product and a factorization on one fleet. Paced links make the
    // runs slow — each block holds the port for c · time_scale = 0.8 ms,
    // tens of milliseconds a run — so a 5 ms budget passes the first check
    // and breaches at a later op. The aborted session must then serve the
    // next run exactly as a session that never aborted would.
    let (time_scale, budget) = (2e-4, Some(Duration::from_millis(5)));
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let (a, b) = (random_matrix(5, 7, 6, 9700), random_matrix(7, 9, 6, 9800));
    let c0 = random_matrix(5, 9, 6, 9900);
    let healthy = run_all_workers(&platform, &a, &b, c0.clone(), 0.0).unwrap();
    let matrix = random_diagonally_dominant(6, 4, 9600);
    let lu_healthy = run_lu(&platform, &matrix, 2, 0.0);

    for mode in [vec![TransportMode::Channel], socket_modes()].concat() {
        let mut session = RuntimeSession::with_transport(&platform, time_scale, mode);
        session.set_run_deadline(budget);
        // Twice: the generation tags keep the first abort's leftovers out
        // of the second run.
        for _ in 0..2 {
            let err = session.run_all_workers(&a, &b, c0.clone()).unwrap_err();
            assert_eq!(err, RuntimeError::RunAborted, "{mode:?}");
            assert_eq!(session.dead_workers(), 0, "{mode:?}: abort must not condemn a link");
        }
        session.set_run_deadline(None);
        let recovered = session.run_all_workers(&a, &b, c0.clone()).unwrap();
        assert_eq!(recovered.c.max_abs_diff(&healthy.c), 0.0, "{mode:?}: run after the aborts");
        assert_eq!(recovered.blocks_moved, healthy.blocks_moved, "{mode:?}");

        session.set_run_deadline(budget);
        assert!(factor(&session, &matrix, 2).aborted, "{mode:?}: LU under a 5 ms budget");
        session.set_run_deadline(None);
        let recovered = factor(&session, &matrix, 2);
        assert!(!recovered.aborted && session.dead_workers() == 0, "{mode:?}");
        let drift = recovered.packed.max_abs_diff(&lu_healthy.packed);
        assert_eq!(drift, 0.0, "{mode:?}: factorization after the abort");
        assert_eq!(session.shutdown(), 3, "{mode:?}");
    }
}

/// The one-shot entry points spawn a channel session per call; their
/// results must equal a held channel session's.
#[test]
fn one_shot_entry_points_match_explicit_channel_sessions() {
    let platform = Platform::homogeneous(3, 4.0, 1.0, 60).unwrap();
    let q = 8;
    let a = random_matrix(4, 3, q, 211);
    let b = random_matrix(3, 6, q, 221);
    let c0 = random_matrix(4, 6, q, 231);
    let ambient = run_holm(&platform, &a, &b, c0.clone(), 0.0).unwrap();
    let channel = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
    let explicit = channel.run_holm(&a, &b, c0).unwrap();
    assert_eq!(ambient.c.max_abs_diff(&explicit.c), 0.0);
    assert_eq!(ambient.blocks_moved, explicit.blocks_moved);
    channel.shutdown();
}
