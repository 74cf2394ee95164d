//! Chaos end-to-end: real `mwp-worker` processes die — deterministically
//! via `MWP_FAULT=kill:<n>` (a `std::process::abort` mid-protocol, the
//! stand-in for `kill -9`; the matrix-product tests sweep `<n>` over
//! every result row of a run, so the death lands in every chunk of the
//! schedule, and the LU test over every panel and core-group reply of
//! the factorization, in either slot) or by an actual SIGKILL from the
//! test — while
//! a master in this process is mid-run over loopback TCP. The master
//! must detect each death, re-dispatch the lost work to survivors, and
//! produce results **bit-identical** to an all-healthy in-process
//! reference star: the staged-commit re-dispatch contract of
//! `docs/ARCHITECTURE.md`, proven over a process boundary.
//!
//! Death here is detected by socket EOF (the kernel closes a killed
//! process's sockets), so these tests need no liveness env; the
//! deadline-driven detection of a *mute* worker lives in
//! `chaos_liveness.rs`, which stages `MWP_HEARTBEAT_MS`/`MWP_DEADLINE_MS`
//! process-wide and therefore runs as its own binary.

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::{BlockMatrix, Partition};
use mwp_core::schedule::{PortOp, Schedule};
use mwp_core::selection::incremental::SelectionRule;
use mwp_core::session::RuntimeSession;
use mwp_core::MemoryLayout;
use mwp_lu::runtime::LuSession;
use mwp_msg::transport::TransportListener;
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerId, WorkerParams};
use std::process::{Child, Command, Stdio};

/// Launch one worker process dialing `endpoint`, with `MWP_FAULT` set to
/// `fault` if non-empty.
fn spawn_worker(endpoint: &str, fault: &str) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mwp-worker"));
    cmd.args(["--connect", endpoint, "--wait-ms", "10000"])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if !fault.is_empty() {
        cmd.env("MWP_FAULT", fault);
    }
    cmd.spawn().expect("spawn mwp-worker")
}

/// Every worker process must have exited successfully (orderly shutdown).
fn reap(children: Vec<Child>) {
    for mut child in children {
        let status = child.wait().expect("wait for mwp-worker");
        assert!(status.success(), "mwp-worker exited with {status}");
    }
}

/// The faulty worker must have died by its own abort — anything else
/// means the fault never fired and the test proved nothing.
fn reap_aborted(mut child: Child) {
    let status = child.wait().expect("wait for the aborted mwp-worker");
    assert!(!status.success(), "the faulty worker exited cleanly: its fault never fired");
}

/// Round inputs shared by the HoLM-shaped chaos tests.
fn holm_round(round: u64) -> (BlockMatrix, BlockMatrix, BlockMatrix) {
    let q = 6;
    let a = random_matrix(5, 7, q, 9100 + round);
    let b = random_matrix(7, 9, q, 9200 + round);
    let c0 = random_matrix(5, 9, q, 9300 + round);
    (a, b, c0)
}

/// The most result rows any one worker returns over `schedule`: the
/// doomed worker enrolls into whichever slot it reaches first, so this
/// bounds the `kill:<n>` values that land inside a single run.
fn most_result_rows(schedule: &Schedule) -> usize {
    let rows_of = |w: &WorkerId| {
        let collected = schedule.ops.iter().filter_map(|op| match op {
            PortOp::Collect { worker, chunk, .. } if worker == w => Some(chunk.height),
            _ => None,
        });
        collected.sum::<usize>()
    };
    schedule.workers().iter().map(rows_of).max().expect("the schedule serves someone")
}

/// The product every sweep round computes, as the generators see it.
fn holm_problem() -> Partition {
    let (a, b, _) = holm_round(0);
    Partition::from_blocks(a.rows(), b.cols(), a.cols(), a.q())
}

/// Each fault × each phase: for every `n` in `1..=rows`, a fresh fleet of
/// three remote workers of which one aborts on its `n`-th result row —
/// so the death lands, in turn, in every chunk the schedule gives it,
/// mid-collection, after the master has already buffered part of the
/// chunk. The staged commit must discard the partial chunk, the executor
/// must re-dispatch it (and everything else the schedule still held for
/// the dead worker) on the survivors, and every round — before, during,
/// and after the death — must match the healthy in-process reference
/// bit for bit.
fn kill_sweep(
    platform: &Platform,
    rows: usize,
    run: impl Fn(&RuntimeSession, &BlockMatrix, &BlockMatrix, BlockMatrix) -> BlockMatrix,
) {
    let local = RuntimeSession::with_transport(platform, 0.0, TransportMode::Channel);
    for n in 1..=rows {
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let healthy: Vec<Child> = (0..2).map(|_| spawn_worker(&endpoint, "")).collect();
        let doomed = spawn_worker(&endpoint, &format!("kill:{n}"));
        let remote = RuntimeSession::accept_remote(platform, 0.0, &listener).unwrap();

        // Keep serving rounds until the abort has been observed (a slot
        // with fewer rows than `n` dies in a later round).
        for round in 0..5u64 {
            let (a, b, c0) = holm_round(round);
            let over_socket = run(&remote, &a, &b, c0.clone());
            let over_channel = run(&local, &a, &b, c0);
            assert_eq!(
                over_socket.max_abs_diff(&over_channel),
                0.0,
                "kill:{n}, round {round}: recovered result must be bit-identical"
            );
            if remote.dead_workers() > 0 {
                break;
            }
        }
        assert_eq!(remote.dead_workers(), 1, "the kill:{n} fault never fired");

        remote.shutdown();
        reap(healthy);
        reap_aborted(doomed);
    }
    local.shutdown();
}

#[test]
fn holm_recovers_bit_identically_when_a_worker_aborts_mid_run() {
    // Memory is deliberately small (m = 20 blocks, µ = 2): the 5×9-block
    // C splits into 15 chunks, so every enrolled worker — including the
    // doomed one — holds several chunks per run. ORROML (every worker
    // enrolled) so the doomed worker always gets work.
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let mu = MemoryLayout::MaxReuseOverlapped.mu(20);
    let schedule = Schedule::algorithm1(&holm_problem(), mu, 3, 1);
    kill_sweep(&platform, most_result_rows(&schedule), |session, a, b, c| {
        session.run_all_workers(a, b, c).unwrap().c
    });
}

#[test]
fn heterogeneous_runtime_recovers_when_a_worker_aborts_mid_run() {
    // Same deaths, other generator: whatever the two-phase schedule
    // still held for the dead worker — the chunk in flight, the rest of
    // its column group — is lost and re-dispatched by the same rule.
    // Unequal memories (µ = 4, 2, 4): when a larger slot dies, its
    // chunks are split to fit their adopters.
    //
    // Compute-heavy workers (w ≫ c) so the resource selection wants the
    // whole fleet: a communication-bound platform would deterministically
    // leave the doomed worker out of the selected set — and out of
    // harm's way.
    let platform =
        Platform::new([32, 20, 32].map(|m| WorkerParams::new(1.0, 8.0, m)).to_vec()).unwrap();
    let mu: Vec<usize> =
        platform.workers().iter().map(|w| MemoryLayout::MaxReuseOverlapped.mu(w.m)).collect();
    let schedule = Schedule::two_phase(&platform, &mu, SelectionRule::Global, &holm_problem());
    assert_eq!(schedule.workers().len(), 3, "the selection must serve the whole fleet");
    kill_sweep(&platform, most_result_rows(&schedule), |session, a, b, c| {
        session.run_heterogeneous(a, b, c, SelectionRule::Global).unwrap().c
    });
}

/// Replies each slot of a healthy fleet sends during one LU run of
/// `blocks` blocks in steps of `mu`: the pivot worker (slot 0) answers
/// each step's panel exchange, and the step's core row groups are dealt
/// round-robin from slot 0.
fn lu_replies(blocks: usize, mu: usize, workers: usize) -> Vec<usize> {
    let steps = blocks.div_ceil(mu);
    let mut replies = vec![0; workers];
    for step in 0..steps {
        replies[0] += 1;
        (0..steps - step - 1).for_each(|group| replies[group % workers] += 1);
    }
    replies
}

#[test]
fn lu_recovers_bit_identically_when_a_worker_aborts_mid_run() {
    // Two LU workers, one of which aborts on its n-th reply — swept over
    // every reply of the run's op sequence, in either slot: as the pivot
    // worker the doomed process dies on each step's panel reply and on
    // each of its core-group replies in turn; as slot 1, on its core
    // groups. The master must retry the panel exchange on, or re-dispatch
    // the lost row groups to, the survivor, and every round must match
    // the healthy channel reference bit for bit. The slots are dealt
    // deterministically: the first worker enrolls alone, the second is
    // admitted.
    let (blocks, mu) = (8, 2);
    let platform = Platform::homogeneous(2, 1.0, 1.0, 1000).unwrap();
    let local = LuSession::with_transport(&platform, 0.0, TransportMode::Channel);
    let replies = lu_replies(blocks, mu, 2);
    assert_eq!(replies, [4 + 4, 2], "4 panel exchanges; 3 + 2 + 1 row groups dealt from slot 0");
    for (slot, &in_one_run) in replies.iter().enumerate() {
        for n in 1..=in_one_run {
            let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
            let endpoint = listener.endpoint();
            let fault = format!("kill:{n}");
            let faults = if slot == 0 { [fault.as_str(), ""] } else { ["", fault.as_str()] };
            let first = spawn_worker(&endpoint, faults[0]);
            let solo = Platform::homogeneous(1, 1.0, 1.0, 1000).unwrap();
            let mut remote = LuSession::accept_remote(&solo, 0.0, &listener).unwrap();
            let second = spawn_worker(&endpoint, faults[1]);
            remote.admit(&listener, WorkerParams { c: 1.0, w: 1.0, m: 1000 }).unwrap();

            let matrix = random_diagonally_dominant(blocks, 4, 8800 + n as u64);
            let over_socket = remote.run(&matrix, mu);
            let over_channel = local.run(&matrix, mu);
            assert!(!over_socket.aborted, "slot {slot}, kill:{n}");
            assert_eq!(
                over_socket.packed.max_abs_diff(&over_channel.packed),
                0.0,
                "slot {slot}, kill:{n}: recovered factors must be bit-identical"
            );
            assert_eq!(remote.dead_workers(), 1, "slot {slot}: the kill:{n} fault never fired");
            // The survivor alone serves the next run just as exactly.
            let after = remote.run(&matrix, mu);
            let drift = after.packed.max_abs_diff(&over_channel.packed);
            assert_eq!(drift, 0.0, "slot {slot}, kill:{n}: the run after the death");

            remote.shutdown();
            let (doomed, healthy) = if slot == 0 { (first, second) } else { (second, first) };
            reap(vec![healthy]);
            reap_aborted(doomed);
        }
    }
    local.shutdown();
}

#[test]
fn corrupted_frame_trips_the_checksum_and_redispatch_recovers_bit_identically() {
    // One worker flips a single bit in its nth outbound result frame
    // (`MWP_FAULT=corrupt:2`) — the CRC32C trailer still vouches for the
    // original bytes, so the master's pump must reject the frame, declare
    // the link dead, and re-dispatch the lost chunk to the survivors.
    // Every round, before and after the corruption, must stay
    // bit-identical to the healthy in-process reference: a flipped bit
    // costs one worker, never one ulp.
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let healthy: Vec<Child> = (0..2).map(|_| spawn_worker(&endpoint, "")).collect();
    let corruptor = spawn_worker(&endpoint, "corrupt:2");
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener).unwrap();
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    for round in 0..6u64 {
        let (a, b, c0) = holm_round(round);
        let over_socket = remote.run_all_workers(&a, &b, c0.clone()).unwrap();
        let over_channel = local.run_all_workers(&a, &b, c0).unwrap();
        assert_eq!(
            over_socket.c.max_abs_diff(&over_channel.c),
            0.0,
            "round {round}: recovered result must be bit-identical"
        );
        if remote.dead_workers() > 0 {
            break;
        }
    }
    assert_eq!(remote.dead_workers(), 1, "the corrupt:2 fault never tripped the checksum");

    local.shutdown();
    remote.shutdown();
    reap(healthy);
    // Unlike kill, corruption leaves the worker process healthy — only
    // its *link* dies (the master stops talking to it). It exits 0 when
    // the session closes its socket.
    reap(vec![corruptor]);
}

#[test]
fn stale_generation_replay_is_rejected_without_touching_the_result() {
    // One worker captures a result frame from an earlier run and replays
    // it verbatim — previous generation tag, valid checksum — ahead of a
    // later run's traffic (`MWP_FAULT=stale:2`). The master's link layer
    // must reject it structurally (the run tag mismatches) before any
    // block accounting: the run stays bit-identical, the link stays
    // alive, and the rejection is observable in the session's stats.
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let healthy: Vec<Child> = (0..2).map(|_| spawn_worker(&endpoint, "")).collect();
    let replayer = spawn_worker(&endpoint, "stale:2");
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener).unwrap();
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    // The fault needs a run boundary to harvest a previous-generation
    // frame, so it can fire on round 1 at the earliest.
    for round in 0..8u64 {
        let (a, b, c0) = holm_round(round);
        let over_socket = remote.run_all_workers(&a, &b, c0.clone()).unwrap();
        let over_channel = local.run_all_workers(&a, &b, c0).unwrap();
        assert_eq!(
            over_socket.c.max_abs_diff(&over_channel.c),
            0.0,
            "round {round}: a stale replay must never perturb the result"
        );
        if remote.stale_rejections() > 0 {
            break;
        }
    }
    assert!(remote.stale_rejections() > 0, "the stale:2 fault never replayed a frame");
    assert_eq!(remote.dead_workers(), 0, "a stale frame is rejected, not a link death");

    local.shutdown();
    remote.shutdown();
    reap(healthy);
    reap(vec![replayer]);
}

#[test]
fn holm_survives_a_real_sigkill_then_readmits_a_replacement() {
    // The full elastic-fleet story over real processes: a healthy round,
    // an actual `kill -9` (SIGKILL, no abort handler, no goodbye), a
    // recovered round on the halved fleet, then prune + admit of a
    // fresh worker process and a round on the regrown fleet — every
    // round bit-identical to the healthy reference. Small memory (µ =
    // 20 blocks) keeps every worker, the victim included, on the
    // critical path of each round.
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let mut children: Vec<Child> = (0..3).map(|_| spawn_worker(&endpoint, "")).collect();
    let mut remote = RuntimeSession::accept_remote(&platform, 0.0, &listener).unwrap();
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    let compare = |remote: &RuntimeSession, round: u64, label: &str| {
        let (a, b, c0) = holm_round(round);
        let over_socket = remote.run_all_workers(&a, &b, c0.clone()).unwrap();
        let over_channel = local.run_all_workers(&a, &b, c0).unwrap();
        assert_eq!(
            over_socket.c.max_abs_diff(&over_channel.c),
            0.0,
            "{label}: result must be bit-identical"
        );
    };

    compare(&remote, 0, "healthy fleet");

    // SIGKILL one worker process outright.
    let mut victim = children.pop().unwrap();
    victim.kill().expect("SIGKILL the victim worker");
    let status = victim.wait().expect("reap the victim");
    assert!(!status.success());

    // The next run discovers the death mid-run (EOF on the victim's
    // socket) and recovers on the two survivors.
    compare(&remote, 1, "after SIGKILL");
    assert_eq!(remote.dead_workers(), 1);

    // Elastic membership: compact the fleet, then regrow it with a
    // fresh worker process enrolling on the still-open listener.
    assert_eq!(remote.prune_dead(), 1);
    assert_eq!(remote.workers(), 2);
    children.push(spawn_worker(&endpoint, ""));
    remote.admit(&listener, WorkerParams { c: 4.0, w: 1.0, m: 20 }).unwrap();
    assert_eq!(remote.workers(), 3);
    assert_eq!(remote.platform().expect("regrown fleet is non-empty").len(), 3);

    compare(&remote, 2, "regrown fleet");
    assert_eq!(remote.dead_workers(), 0);

    local.shutdown();
    remote.shutdown();
    reap(children);
}
