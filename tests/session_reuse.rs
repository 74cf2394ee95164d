//! Persistent-session cross-validation: a session reused over N
//! back-to-back runs must produce **bit-identical** results to N
//! fresh-spawn runs — under whichever kernel the dispatcher picked (the
//! `MWP_KERNEL=scalar` CI leg covers the fallback). Block sides vary
//! across the runs so the pooled workers' in-place scratch reset
//! (q-bound storage) is exercised, not just the warm path.

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::gemm::gemm_serial;
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::{run_lu, LuSession};

/// N reused-session HoLM runs vs N fresh-spawn runs: same C bits, same
/// traffic, same enrollment — and both bit-identical to the serial
/// product (same kernel, same per-block accumulation order).
#[test]
fn reused_session_matches_fresh_spawn_bitwise() {
    let platform = Platform::homogeneous(4, 4.0, 1.0, 60).unwrap();
    let session = RuntimeSession::new(&platform, 0.0);
    for (round, q) in [(0u64, 8usize), (1, 8), (2, 33), (3, 16), (4, 33)] {
        let a = random_matrix(5, 7, q, 401 + round);
        let b = random_matrix(7, 9, q, 501 + round);
        let c0 = random_matrix(5, 9, q, 601 + round);

        let pooled = session.run_holm(&a, &b, c0.clone()).unwrap();
        let fresh = run_holm(&platform, &a, &b, c0.clone(), 0.0).unwrap();
        assert_eq!(
            pooled.c.max_abs_diff(&fresh.c),
            0.0,
            "round {round} (q = {q}): pooled and fresh-spawn runs must be bit-identical"
        );
        assert_eq!(pooled.blocks_moved, fresh.blocks_moved, "round {round}");
        assert_eq!(pooled.workers_used, fresh.workers_used, "round {round}");
        assert_eq!(pooled.chunk_side, fresh.chunk_side, "round {round}");

        let mut serial = c0;
        gemm_serial(&mut serial, &a, &b);
        assert_eq!(pooled.c.max_abs_diff(&serial), 0.0, "round {round} vs serial");
    }
    assert_eq!(session.shutdown(), 4);
}

/// The same guarantee for the heterogeneous two-phase runtime, whose
/// chunks have per-worker sizes.
#[test]
fn reused_session_heterogeneous_matches_fresh_spawn() {
    let platform = Platform::new(vec![
        WorkerParams::new(2.0, 2.0, 60),
        WorkerParams::new(3.0, 3.0, 396),
        WorkerParams::new(5.0, 1.0, 140),
    ])
    .unwrap();
    let session = RuntimeSession::new(&platform, 0.0);
    let q = 4;
    for round in 0..3u64 {
        let a = random_matrix(10, 4, q, 411 + round);
        let b = random_matrix(4, 13, q, 511 + round);
        let c0 = random_matrix(10, 13, q, 611 + round);

        let pooled = session
            .run_heterogeneous(&a, &b, c0.clone(), SelectionRule::Global)
            .unwrap();
        let fresh =
            run_heterogeneous(&platform, &a, &b, c0, SelectionRule::Global, 0.0).unwrap();
        assert_eq!(pooled.c.max_abs_diff(&fresh.c), 0.0, "round {round}");
        assert_eq!(pooled.blocks_moved, fresh.blocks_moved, "round {round}");
        assert_eq!(pooled.workers_used, fresh.workers_used, "round {round}");
    }
    assert_eq!(session.shutdown(), 3);
}

/// One session can interleave HoLM, ORROML, and heterogeneous-capable
/// platforms' shapes of runs back to back; every run stays correct.
#[test]
fn one_session_serves_mixed_run_kinds() {
    let platform = Platform::homogeneous(3, 4.0, 1.0, 60).unwrap();
    let session = RuntimeSession::new(&platform, 0.0);
    let q = 8;
    let a = random_matrix(4, 5, q, 421);
    let b = random_matrix(5, 6, q, 521);
    let c0 = random_matrix(4, 6, q, 621);

    let holm = session.run_holm(&a, &b, c0.clone()).unwrap();
    let orroml = session.run_all_workers(&a, &b, c0.clone()).unwrap();
    let fresh_holm = run_holm(&platform, &a, &b, c0.clone(), 0.0).unwrap();
    let fresh_orroml = run_all_workers(&platform, &a, &b, c0, 0.0).unwrap();
    assert_eq!(holm.c.max_abs_diff(&fresh_holm.c), 0.0);
    assert_eq!(orroml.c.max_abs_diff(&fresh_orroml.c), 0.0);
    assert_eq!(session.shutdown(), 3);
}

/// N reused-session LU factorizations vs N fresh-spawn ones: bit-identical
/// packed factors and identical message counts, across block sides and
/// panel widths.
#[test]
fn reused_lu_session_matches_fresh_spawn_bitwise() {
    let platform = Platform::homogeneous(3, 1.0, 1.0, 1000).unwrap();
    let session = LuSession::new(&platform, 0.0);
    for (round, (n_blocks, q, mu)) in
        [(3usize, 8usize, 1usize), (4, 6, 2), (2, 33, 1), (4, 6, 4)].into_iter().enumerate()
    {
        let m = random_diagonally_dominant(n_blocks, q, 431 + round as u64);
        let pooled = session.run(&m, mu);
        let fresh = run_lu(&platform, &m, mu, 0.0);
        assert_eq!(
            pooled.packed.max_abs_diff(&fresh.packed),
            0.0,
            "round {round} (n = {n_blocks}, q = {q}, µ = {mu}): factors must be bit-identical"
        );
        assert_eq!(pooled.messages, fresh.messages, "round {round}");
        assert_eq!(pooled.workers_used, fresh.workers_used, "round {round}");
    }
    assert_eq!(session.shutdown(), 3);
}

/// Orderly shutdown joins every pooled worker thread — even the ones a
/// selective run never enrolled (they sat parked the whole time).
#[test]
fn shutdown_joins_every_worker_thread() {
    let platform = Platform::homogeneous(5, 4.0, 1.0, 60).unwrap();
    let session = RuntimeSession::new(&platform, 0.0);
    let q = 8;
    let a = random_matrix(3, 3, q, 441);
    let b = random_matrix(3, 3, q, 541);
    let c0 = random_matrix(3, 3, q, 641);
    let out = session.run_holm(&a, &b, c0).unwrap();
    assert!(out.workers_used < 5, "selection should leave some workers parked");
    assert_eq!(session.shutdown(), 5, "all five workers must join, enrolled or not");

    let lu_session = LuSession::new(&platform, 0.0);
    assert_eq!(lu_session.shutdown(), 5, "a session that never ran still joins cleanly");
}

/// Dropping a session without an explicit shutdown must also terminate
/// and join its workers (the test would hang under the harness timeout
/// if a parked worker leaked).
#[test]
fn dropping_a_session_terminates_its_workers() {
    let platform = Platform::homogeneous(4, 4.0, 1.0, 60).unwrap();
    let q = 8;
    let a = random_matrix(3, 4, q, 451);
    let b = random_matrix(4, 3, q, 551);
    let c0 = random_matrix(3, 3, q, 651);
    {
        let session = RuntimeSession::new(&platform, 0.0);
        session.run_holm(&a, &b, c0).unwrap();
        // session dropped here, mid-lifetime, with workers parked
    }
    {
        let _unused = LuSession::new(&platform, 0.0);
        // dropped without ever serving a run
    }
}
