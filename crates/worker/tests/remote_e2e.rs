//! Out-of-process end-to-end: real `mwp-worker` processes dial a master
//! in this test process over loopback TCP, enroll, and serve runs whose
//! results must be **bit-identical** to the in-process channel
//! transport's — the strongest statement that the socket backend forked
//! no compute path. Each worker process serves several consecutive
//! pooled-session runs over one connection, so the session protocol's
//! park/wake cycle is exercised across a process boundary too.
//!
//! The spawned processes inherit this test's environment, so the
//! `MWP_KERNEL` CI legs force the same kernel on both sides
//! of the wire (a star mixing `scalar` with a SIMD kernel computes
//! different bits, which a real deployment surfaces via
//! [`RuntimeSession::worker_fingerprints`]; `avx2` and `avx512` workers
//! agree bit for bit).
//! The fleet's own settings are not ambient: the masters accept under a
//! literal `Config` and the workers are handed its secret (`common`).

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::LuSession;
use mwp_msg::transport::TransportListener;
use mwp_msg::TransportMode;
use mwp_platform::Platform;
use std::process::Child;

mod common;
use common::{fleet, reap};

/// Launch `n` worker processes dialing `endpoint`.
fn spawn_workers(n: usize, endpoint: &str) -> Vec<Child> {
    (0..n).map(|_| common::spawn_worker(endpoint, "")).collect()
}

#[test]
fn remote_workers_serve_consecutive_holm_runs_bit_identically() {
    let platform = Platform::homogeneous(3, 4.0, 1.0, 60).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let children = spawn_workers(platform.len(), &listener.endpoint());
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();

    // Every enrollment carried the worker binary's fingerprint.
    for fp in remote.worker_fingerprints() {
        let fp = String::from_utf8_lossy(fp);
        assert!(fp.starts_with("mwp-worker/"), "unexpected fingerprint: {fp}");
    }

    // The reference star: in-process channel workers.
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    // Three consecutive runs over the same connections, with a block-side
    // change in the middle (the remote workers' in-place scratch reset).
    for (round, q) in [(0u64, 8usize), (1, 8), (2, 5)] {
        let a = random_matrix(5, 7, q, 901 + round);
        let b = random_matrix(7, 9, q, 911 + round);
        let c0 = random_matrix(5, 9, q, 921 + round);
        let over_socket = remote.run_holm(&a, &b, c0.clone()).unwrap();
        let over_channel = local.run_holm(&a, &b, c0).unwrap();
        assert_eq!(
            over_socket.c.max_abs_diff(&over_channel.c),
            0.0,
            "round {round} (q = {q}): socket and channel results must be bit-identical"
        );
        assert_eq!(over_socket.blocks_moved, over_channel.blocks_moved, "round {round}");
        assert_eq!(over_socket.workers_used, over_channel.workers_used, "round {round}");
    }

    local.shutdown();
    remote.shutdown();
    reap(children);
}

#[test]
fn remote_workers_serve_lu_runs_bit_identically() {
    let platform = Platform::homogeneous(2, 1.0, 1.0, 1000).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let children = spawn_workers(platform.len(), &listener.endpoint());
    let remote = LuSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
    let local = LuSession::with_transport(&platform, 0.0, TransportMode::Channel);

    // Two consecutive factorizations over one connection per worker.
    for (round, (r, q)) in [(0u64, (4usize, 6usize)), (1, (3, 5))] {
        let matrix = random_diagonally_dominant(r, q, 301 + round);
        let over_socket = remote.run(&matrix, 2);
        let over_channel = local.run(&matrix, 2);
        assert_eq!(
            over_socket.packed.max_abs_diff(&over_channel.packed),
            0.0,
            "round {round}: socket and channel factors must be bit-identical"
        );
        assert_eq!(over_socket.messages, over_channel.messages, "round {round}");
    }

    local.shutdown();
    remote.shutdown();
    reap(children);
}

#[test]
fn dropping_a_remote_session_shuts_workers_down() {
    // Drop without an explicit shutdown: the session teardown must still
    // deliver shutdown frames so the worker processes exit 0 (a leak
    // here would hang `reap`, failing via test timeout).
    let platform = Platform::homogeneous(2, 4.0, 1.0, 60).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let children = spawn_workers(platform.len(), &listener.endpoint());
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
    let q = 4;
    let a = random_matrix(3, 3, q, 1);
    let b = random_matrix(3, 3, q, 2);
    let c0 = random_matrix(3, 3, q, 3);
    remote.run_holm(&a, &b, c0).unwrap();
    drop(remote);
    reap(children);
}
