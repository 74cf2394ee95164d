//! Serving-tier chaos end-to-end: a worker dies while a [`MatrixServer`]
//! has **several jobs in flight** on the fleet — the
//! hardest case for the staged-commit re-dispatch contract, because the
//! lost worker held chunks of more than one run generation at once. The
//! master must detect the death, requeue every lost chunk inside its own
//! job, and finish all surviving jobs **bit-identical** to a healthy
//! exclusive-run reference.
//!
//! The workers are in-process (`common::spawn_in_process`), dialed in
//! order, so the doomed worker, spawned last, holds the last slot; it is
//! killed at its `n`-th result row.

use mwp_blockmat::fill::random_matrix;
use mwp_blockmat::Partition;
use mwp_core::schedule::{PortOp, Schedule};
use mwp_core::serving::{JobSpec, MatrixServer};
use mwp_core::session::RuntimeSession;
use mwp_core::MemoryLayout;
use mwp_msg::transport::TransportListener;
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerId};

mod common;
use common::{fleet, join_all, spawn_honest, spawn_in_process, Fault};

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
    // four job generations in flight when the doomed worker is killed at
    // its second result frame — mid-chunk, with chunks of several jobs
    // resident. Every job, in-flight or later, must come back
    // bit-identical to the healthy exclusive reference.
    let platform = Platform::homogeneous(3, 2.0, 4.5, 60).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let healthy = spawn_honest(&endpoint, &fleet(), 2);
    let doomed = spawn_in_process(&endpoint, &fleet(), Some((Fault::Kill, 2)));
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
    assert!(doomed.fired(), "the kill:2 fault never fired");
    assert_eq!(server.dead_workers(), 1, "kill:2: one worker is dead");

    local.shutdown();
    server.shutdown();
    join_all(healthy);
    doomed.join();
}

/// Result rows the last of three workers of memory `m` returns in one
/// round of the batched test: the plug job's, then those of the small
/// jobs fused into one composite run — read off the schedules the runs
/// generate, as the LU sweep reads its replies.
fn doomed_rows_per_round(plug: (usize, usize, usize, usize), small: (usize, usize, usize, usize), fused: usize, m: usize) -> usize {
    let mu = MemoryLayout::MaxReuseOverlapped.mu(m);
    let rows = |(r, t, s, q): (usize, usize, usize, usize), jobs: usize| {
        let schedule = Schedule::algorithm1(&Partition::from_blocks(r, s, t, q), mu, 3, jobs);
        let collected = schedule.ops.iter().filter_map(|op| match op {
            PortOp::Collect { worker: WorkerId(2), chunk, .. } => Some(chunk.height),
            _ => None,
        });
        collected.sum::<usize>()
    };
    rows(plug, 1) + rows(small, fused)
}

#[test]
fn batched_serving_recovers_bit_identically_when_a_worker_dies() {
    // Same death under the batching tier: a plug job holds the single
    // dispatcher while small compatible jobs pile up, so they fuse into
    // one composite run spanning all three workers (µ = 2 at m = 20 —
    // every worker gets chunks). For every `n` up to the rows one round
    // sends the doomed worker, a fresh fleet's doomed worker is killed at
    // its `n`-th result row, so the death lands in turn in each of the
    // plug's chunks and each of the composite run's. The runs must replay
    // the lost chunks on the survivors with each job, fused or not, still
    // bit-identical to its solo run.
    let (plug_shape, small_shape, smalls_per_round) = ((8, 6, 8, 6), (4, 3, 4, 4), 3);
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
    let rows = doomed_rows_per_round(plug_shape, small_shape, smalls_per_round, 20);
    for n in 1..=rows as u64 {
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let healthy = spawn_honest(&endpoint, &fleet(), 2);
        let doomed = spawn_in_process(&endpoint, &fleet(), Some((Fault::Kill, n)));
        let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();

        let server = MatrixServer::with_options(remote, 1, true);
        let mut saw_fused = false;
        for round in 0..5u64 {
            let plug = round_jobs(90 + round, 1, plug_shape, false).remove(0);
            let smalls = round_jobs(round, smalls_per_round as u64, small_shape, false);
            let plug_handle = server.submit(plug.clone());
            let small_handles: Vec<_> =
                smalls.iter().map(|s| server.submit(s.clone())).collect();

            let plug_done = plug_handle.wait();
            assert_eq!(
                plug_done.result.unwrap().c.max_abs_diff(&solo(&local, &plug)),
                0.0,
                "kill:{n}, round {round}: plug job must stay bit-identical"
            );
            for (spec, handle) in smalls.iter().zip(small_handles) {
                let completed = handle.wait();
                saw_fused |= completed.report.batched_with > 0;
                assert_eq!(
                    completed.result.unwrap().c.max_abs_diff(&solo(&local, spec)),
                    0.0,
                    "kill:{n}, round {round}: fused job must stay bit-identical across the death"
                );
            }
            if server.dead_workers() > 0 {
                break;
            }
        }
        assert!(doomed.fired(), "the kill:{n} fault never fired");
        assert_eq!(server.dead_workers(), 1, "kill:{n}: one worker is dead");
        assert!(saw_fused, "kill:{n}: the piled-up small jobs never fused into a composite run");

        server.shutdown();
        join_all(healthy);
        doomed.join();
    }
    local.shutdown();
}
