//! Cooperative run abort end-to-end: a master whose whole-run budget
//! (`MWP_RUN_DEADLINE_MS`) elapses must broadcast `RUN_ABORT`, give up
//! on the run — `RuntimeError::RunAborted` for the matrix product, the
//! `aborted` outcome flag for LU — and leave the **session** serving:
//! the very next run on the same fleet, same worker processes, must
//! complete and match a healthy reference bit-for-bit.
//!
//! The deadline env is staged process-wide (the master re-reads it per
//! run), so this suite lives in its own integration-test binary and
//! drives both legs from one `#[test]` — the other e2e suites must keep
//! running with no run deadline.

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_core::runtime::RuntimeError;
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::LuSession;
use mwp_msg::transport::TransportListener;
use mwp_msg::TransportMode;
use mwp_platform::Platform;
use std::process::{Child, Command, Stdio};

fn spawn_worker(endpoint: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_mwp-worker"))
        .args(["--connect", endpoint, "--wait-ms", "10000"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mwp-worker")
}

fn reap(children: Vec<Child>) {
    for mut child in children {
        let status = child.wait().expect("wait for mwp-worker");
        assert!(status.success(), "mwp-worker exited with {status}");
    }
}

#[test]
fn deadline_breach_aborts_the_run_and_the_session_serves_the_next_one() {
    // Paced links make the runs deliberately slow: each block holds the
    // port for c · time_scale = 0.8 ms of wall time, so a multi-round
    // product run costs tens of milliseconds — far past a 5 ms budget —
    // while the first deadline check (taken before any work) still
    // passes. Small memory (µ = 20 blocks) forces several chunk rounds,
    // so there *is* a between-rounds checkpoint to abort at.
    let time_scale = 2e-4;
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let children: Vec<Child> = (0..3).map(|_| spawn_worker(&endpoint)).collect();
    let remote = RuntimeSession::accept_remote(&platform, time_scale, &listener).unwrap();

    let q = 6;
    let a = random_matrix(5, 7, q, 9700);
    let b = random_matrix(7, 9, q, 9800);
    let c0 = random_matrix(5, 9, q, 9900);

    // --- Leg 1: the product run aborts... ---------------------------
    std::env::set_var("MWP_RUN_DEADLINE_MS", "5");
    let err = remote
        .run_all_workers(&a, &b, c0.clone())
        .expect_err("a 5 ms budget must abort a paced multi-round run");
    assert_eq!(err, RuntimeError::RunAborted);
    assert_eq!(remote.dead_workers(), 0, "abort must not condemn any link");

    // ...and a second abort on the same session is just as orderly (the
    // generation tags keep any first-abort leftovers out of the run).
    let err = remote.run_all_workers(&a, &b, c0.clone()).expect_err("second abort");
    assert_eq!(err, RuntimeError::RunAborted);

    // --- Recovery: same session, same worker processes, budget off. --
    std::env::remove_var("MWP_RUN_DEADLINE_MS");
    let recovered = remote.run_all_workers(&a, &b, c0.clone()).expect("post-abort run");
    let reference = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
    let healthy = reference.run_all_workers(&a, &b, c0).expect("healthy reference run");
    assert_eq!(
        recovered.c.max_abs_diff(&healthy.c),
        0.0,
        "the run after an abort must be bit-identical to a fresh session's"
    );
    assert_eq!(recovered.blocks_moved, healthy.blocks_moved);
    assert_eq!(remote.dead_workers(), 0);
    reference.shutdown();

    // --- Leg 2: LU on its own paced fleet, same contract. ------------
    // LU meters every frame at its true size in blocks, so pace the
    // blocks: at 0.2 ms each, step 0's panel exchange alone (20 blocks out,
    // 20 back) breaches 5 ms, and the whole factorization (144 blocks) is
    // 29 ms.
    let lu_platform = Platform::homogeneous(2, 1.0, 1.0, 1000).unwrap();
    let lu_listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let lu_endpoint = lu_listener.endpoint();
    let lu_children: Vec<Child> = (0..2).map(|_| spawn_worker(&lu_endpoint)).collect();
    let lu_remote = LuSession::accept_remote(&lu_platform, 2e-4, &lu_listener).unwrap();
    let matrix = random_diagonally_dominant(6, 4, 9600);

    std::env::set_var("MWP_RUN_DEADLINE_MS", "5");
    let aborted = lu_remote.run(&matrix, 2);
    assert!(aborted.aborted, "a 5 ms budget must abort a paced factorization");
    assert_eq!(lu_remote.dead_workers(), 0, "abort must not condemn any link");

    std::env::remove_var("MWP_RUN_DEADLINE_MS");
    let recovered = lu_remote.run(&matrix, 2);
    assert!(!recovered.aborted);
    let lu_reference = LuSession::with_transport(&lu_platform, 0.0, TransportMode::Channel);
    let healthy = lu_reference.run(&matrix, 2);
    assert_eq!(
        recovered.packed.max_abs_diff(&healthy.packed),
        0.0,
        "the factorization after an abort must be bit-identical to a fresh session's"
    );
    assert_eq!(lu_remote.dead_workers(), 0);
    lu_reference.shutdown();

    lu_remote.shutdown();
    remote.shutdown();
    reap(children);
    reap(lu_children);
}
