//! Serving-tier chaos end-to-end: a real `mwp-worker` process dies while
//! a [`MatrixServer`] has **several jobs in flight** on the fleet — the
//! hardest case for the staged-commit re-dispatch contract, because the
//! lost worker held chunks of more than one run generation at once. The
//! master must detect the death, requeue every lost chunk inside its own
//! job, and finish all surviving jobs **bit-identical** to a healthy
//! exclusive-run reference.

use mwp_blockmat::fill::random_matrix;
use mwp_core::serving::{JobSpec, MatrixServer};
use mwp_core::session::RuntimeSession;
use mwp_msg::transport::TransportListener;
use mwp_msg::TransportMode;
use mwp_platform::Platform;
use std::process::Child;

mod common;
use common::{fleet, reap, reap_failed, spawn_worker};

/// One round's jobs: distinct seeds per (round, slot) so every retry of
/// the test sees the same data.
fn round_jobs(round: u64, n: u64, shape: (usize, usize, usize, usize), select: bool) -> Vec<JobSpec> {
    let (r, t, s, q) = shape;
    (0..n)
        .map(|j| {
            let seed = 7000 + 100 * round + 10 * j;
            JobSpec {
                a: random_matrix(r, t, q, seed),
                b: random_matrix(t, s, q, seed + 1),
                c: random_matrix(r, s, q, seed + 2),
                select,
            }
        })
        .collect()
}

/// Exclusive-run reference for one job, on a healthy in-process fleet.
fn solo(local: &RuntimeSession, spec: &JobSpec) -> mwp_blockmat::BlockMatrix {
    let out = if spec.select {
        local.run_holm(&spec.a, &spec.b, spec.c.clone()).unwrap()
    } else {
        local.run_all_workers(&spec.a, &spec.b, spec.c.clone()).unwrap()
    };
    out.c
}

#[test]
fn serving_recovers_bit_identically_when_a_worker_dies_mid_multi_job_run() {
    // Three remote workers; the small-matrix selection enrolls all of
    // them at ν = 2 (footprint 12 of m = 60), so admission keeps up to
    // four job generations in flight when the `kill:2` worker aborts on
    // its second result frame — mid-chunk, with chunks of several jobs
    // resident. Every job, in-flight or later, must come back
    // bit-identical to the healthy exclusive reference.
    let platform = Platform::homogeneous(3, 2.0, 4.5, 60).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let healthy: Vec<Child> = (0..2).map(|_| spawn_worker(&endpoint, "")).collect();
    let doomed = spawn_worker(&endpoint, "kill:2");
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    let server = MatrixServer::with_options(remote, 4, false);
    for round in 0..5u64 {
        let specs = round_jobs(round, 4, (6, 4, 6, 4), true);
        let handles: Vec<_> = specs.iter().map(|s| server.submit(s.clone())).collect();
        for (spec, handle) in specs.iter().zip(handles) {
            let completed = handle.wait();
            let got = completed.result.unwrap();
            assert_eq!(
                got.c.max_abs_diff(&solo(&local, spec)),
                0.0,
                "round {round}: served job must stay bit-identical across the death"
            );
        }
        if server.dead_workers() > 0 {
            break;
        }
    }
    assert_eq!(server.dead_workers(), 1, "the kill:2 fault never fired");

    local.shutdown();
    server.shutdown();
    reap(healthy);
    reap_failed(doomed, "its kill fault never fired");
}

#[test]
fn batched_serving_recovers_bit_identically_when_a_worker_dies() {
    // Same death under the batching tier: a plug job holds the single
    // dispatcher while small compatible jobs pile up, so they fuse into
    // one composite run spanning all three workers (µ = 2 at m = 20 —
    // every worker gets chunks). The `kill:2` abort lands inside that
    // traffic, and the composite run must replay the lost chunks on the
    // survivors with each fused job still bit-identical to its solo run.
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let healthy: Vec<Child> = (0..2).map(|_| spawn_worker(&endpoint, "")).collect();
    let doomed = spawn_worker(&endpoint, "kill:2");
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    let server = MatrixServer::with_options(remote, 1, true);
    let mut saw_fused = false;
    for round in 0..5u64 {
        let plug = round_jobs(90 + round, 1, (8, 6, 8, 6), false).remove(0);
        let smalls = round_jobs(round, 3, (4, 3, 4, 4), false);
        let plug_handle = server.submit(plug.clone());
        let small_handles: Vec<_> =
            smalls.iter().map(|s| server.submit(s.clone())).collect();

        let plug_done = plug_handle.wait();
        assert_eq!(
            plug_done.result.unwrap().c.max_abs_diff(&solo(&local, &plug)),
            0.0,
            "round {round}: plug job must stay bit-identical"
        );
        for (spec, handle) in smalls.iter().zip(small_handles) {
            let completed = handle.wait();
            saw_fused |= completed.report.batched_with > 0;
            assert_eq!(
                completed.result.unwrap().c.max_abs_diff(&solo(&local, spec)),
                0.0,
                "round {round}: fused job must stay bit-identical across the death"
            );
        }
        if server.dead_workers() > 0 {
            break;
        }
    }
    assert_eq!(server.dead_workers(), 1, "the kill:2 fault never fired");
    assert!(saw_fused, "the piled-up small jobs never fused into a composite run");

    local.shutdown();
    server.shutdown();
    reap(healthy);
    reap_failed(doomed, "its kill fault never fired");
}
