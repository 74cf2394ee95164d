//! Chaos end-to-end: a worker dies, goes mute, corrupts a frame or
//! replays a stale one while a master in this process is mid-run over
//! loopback TCP. The master must detect each failure, re-dispatch the
//! lost work to survivors, and produce results **bit-identical** to an
//! all-healthy in-process reference star: the staged-commit re-dispatch
//! contract of `docs/ARCHITECTURE.md`.
//!
//! The faulty workers are in-process (`common::spawn_in_process`): the
//! worker program on a thread, over a test-side socket stream that acts
//! from its `n`-th outbound data frame on. A killed worker's socket is
//! shut down both ways, so the master reads the EOF a killed process
//! leaves. The matrix-product tests sweep `n` over every result row of a
//! run, so the death lands in every chunk of the schedule, and the LU
//! test over every panel reply and trailing C row of the factorization,
//! in either slot. Workers enroll in the order they are spawned, so each
//! test knows its faulty worker's slot.
//!
//! Two tests keep real `mwp-worker` processes: an actual SIGKILL from
//! the test, and a master whose whole-run budget elapses, which must
//! broadcast `RUN_ABORT`, give up on the run — `RuntimeError::RunAborted`
//! for the matrix product, the `aborted` outcome flag for LU — and leave
//! the **session** serving.
//!
//! A worker whose socket stays open but goes **mute** emits no EOF, so
//! only a tight liveness deadline catches it: that test hands its fleet
//! a literal [`Config`]. Every fleet here is authenticated: masters and
//! workers are handed one secret (`common`), so death, re-dispatch and
//! re-admission all go through the HMAC handshake.

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::{BlockMatrix, Partition};
use mwp_core::runtime::RuntimeError;
use mwp_core::schedule::{PortOp, Schedule};
use mwp_core::selection::incremental::SelectionRule;
use mwp_core::session::RuntimeSession;
use mwp_core::MemoryLayout;
use mwp_lu::runtime::{factor, run_lu};
use mwp_lu::schedule::{lu_schedule, LuOp};
use mwp_msg::config::Config;
use mwp_msg::transport::TransportListener;
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerId, WorkerParams};
use std::process::Child;
use std::time::{Duration, Instant};

mod common;
use common::{fleet, join_all, reap, spawn_honest, spawn_in_process, spawn_worker, Fault};

/// Round inputs shared by the HoLM-shaped chaos tests.
fn holm_round(round: u64) -> (BlockMatrix, BlockMatrix, BlockMatrix) {
    let q = 6;
    let a = random_matrix(5, 7, q, 9100 + round);
    let b = random_matrix(7, 9, q, 9200 + round);
    let c0 = random_matrix(5, 9, q, 9300 + round);
    (a, b, c0)
}

/// The most result rows any one worker returns over `schedule`: this
/// bounds the kill indices that land inside a single run, whichever
/// slot the doomed worker holds.
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
/// three remote workers of which one is killed at its `n`-th result row —
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
        let healthy = spawn_honest(&endpoint, &fleet(), 2);
        let doomed = spawn_in_process(&endpoint, &fleet(), Some((Fault::Kill, n as u64)));
        let remote = RuntimeSession::accept_remote(platform, 0.0, &listener, &fleet()).unwrap();

        // Keep serving rounds until the death has been observed (a slot
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
        assert!(doomed.fired(), "the kill:{n} fault never fired");
        assert_eq!(remote.dead_workers(), 1, "kill:{n}: one worker is dead");

        remote.shutdown();
        join_all(healthy);
        doomed.join();
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

/// Reply frames each slot of a healthy fleet of `workers` of memory `m`
/// sends during one LU run of `blocks` blocks in steps of `mu` — the pivot
/// worker's panel replies and each slot's collected C rows — read off the
/// schedule the run walks.
fn lu_replies(blocks: usize, mu: usize, workers: usize, m: usize) -> Vec<usize> {
    let side = MemoryLayout::MaxReuseOverlapped.mu(m);
    let mut replies = vec![0; workers];
    for op in lu_schedule(blocks, mu, &vec![side; workers]) {
        match op {
            LuOp::Panel { worker, .. } => replies[worker.index()] += 1,
            LuOp::Chunk(PortOp::Collect { worker, chunk, .. }) => replies[worker.index()] += chunk.height,
            LuOp::Chunk(_) => {}
        }
    }
    replies
}

#[test]
fn lu_recovers_bit_identically_when_a_worker_aborts_mid_run() {
    // Two workers, one of which is killed at its n-th reply — swept over
    // every reply of the run's op sequence, in either slot: as the pivot
    // worker the doomed one dies on each step's panel reply and on
    // each C row of its trailing chunks in turn; as slot 1, on its C rows.
    // The master must retry the panel exchange on, or re-dispatch the lost
    // chunks to, the survivor, and every round must match the healthy
    // channel reference bit for bit. The slots are dealt
    // deterministically: the first worker enrolls alone, the second is
    // admitted.
    let (blocks, mu) = (8, 2);
    let platform = Platform::homogeneous(2, 1.0, 1.0, 1000).unwrap();
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
    let replies = lu_replies(blocks, mu, 2, 1000);
    assert_eq!(replies, [4 + 6, 6], "4 panel replies; each slot collects 3 + 2 + 1 trailing rows");
    for (slot, &in_one_run) in replies.iter().enumerate() {
        for n in 1..=in_one_run {
            let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
            let endpoint = listener.endpoint();
            let fault = |at_slot| (slot == at_slot).then_some((Fault::Kill, n as u64));
            let first = spawn_in_process(&endpoint, &fleet(), fault(0));
            let solo = Platform::homogeneous(1, 1.0, 1.0, 1000).unwrap();
            let mut remote = RuntimeSession::accept_remote(&solo, 0.0, &listener, &fleet()).unwrap();
            let second = spawn_in_process(&endpoint, &fleet(), fault(1));
            remote.admit(&listener, WorkerParams { c: 1.0, w: 1.0, m: 1000 }).unwrap();

            let matrix = random_diagonally_dominant(blocks, 4, 8800 + n as u64);
            let over_socket = factor(&remote, &matrix, mu);
            let over_channel = factor(&local, &matrix, mu);
            let doomed = if slot == 0 { &first } else { &second };
            assert!(doomed.fired(), "slot {slot}: the kill:{n} fault never fired");
            assert!(!over_socket.aborted, "slot {slot}, kill:{n}");
            assert_eq!(
                over_socket.packed.max_abs_diff(&over_channel.packed),
                0.0,
                "slot {slot}, kill:{n}: recovered factors must be bit-identical"
            );
            assert_eq!(remote.dead_workers(), 1, "slot {slot}, kill:{n}: one worker is dead");
            // The survivor alone serves the next run just as exactly.
            let after = factor(&remote, &matrix, mu);
            let drift = after.packed.max_abs_diff(&over_channel.packed);
            assert_eq!(drift, 0.0, "slot {slot}, kill:{n}: the run after the death");

            remote.shutdown();
            join_all(vec![first, second]);
        }
    }
    local.shutdown();
}

#[test]
fn corrupted_frame_trips_the_checksum_and_redispatch_recovers_bit_identically() {
    // One worker flips a single bit in its 2nd outbound result frame —
    // the CRC32C trailer still vouches for the
    // original bytes, so the master's pump must reject the frame, declare
    // the link dead, and re-dispatch the lost chunk to the survivors.
    // Every round, before and after the corruption, must stay
    // bit-identical to the healthy in-process reference: a flipped bit
    // costs one worker, never one ulp.
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let healthy = spawn_honest(&endpoint, &fleet(), 2);
    let corruptor = spawn_in_process(&endpoint, &fleet(), Some((Fault::Corrupt, 2)));
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
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
    assert!(corruptor.fired(), "the corrupt:2 fault never fired");
    assert_eq!(remote.dead_workers(), 1, "the corrupted frame condemns its worker");

    local.shutdown();
    remote.shutdown();
    join_all(healthy);
    // Unlike kill, corruption leaves the worker program running — only
    // its *link* dies (the master stops talking to it). It returns when
    // the session closes its socket.
    corruptor.join();
}

#[test]
fn stale_generation_replay_is_rejected_without_touching_the_result() {
    // One worker captures a result frame from an earlier run and replays
    // it verbatim — previous generation tag, valid checksum — ahead of a
    // later run's traffic, from its 2nd data frame on. The master's link layer
    // must reject it structurally (the run tag mismatches) before any
    // block accounting: the run stays bit-identical, the link stays
    // alive, and the rejection is observable in the session's stats.
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let healthy = spawn_honest(&endpoint, &fleet(), 2);
    let replayer = spawn_in_process(&endpoint, &fleet(), Some((Fault::Stale, 2)));
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
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
    assert!(replayer.fired(), "the stale:2 fault never fired");
    assert!(remote.stale_rejections() > 0, "the replayed frame was rejected as stale");
    assert_eq!(remote.dead_workers(), 0, "a stale frame is rejected, not a link death");

    local.shutdown();
    remote.shutdown();
    join_all(healthy);
    replayer.join();
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
    let mut children: Vec<Child> = (0..3).map(|_| spawn_worker(&endpoint)).collect();
    let mut remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
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
    children.push(spawn_worker(&endpoint));
    remote.admit(&listener, WorkerParams { c: 4.0, w: 1.0, m: 20 }).unwrap();
    assert_eq!(remote.workers(), 3);
    assert_eq!(remote.platform().expect("regrown fleet is non-empty").len(), 3);

    compare(&remote, 2, "regrown fleet");
    assert_eq!(remote.dead_workers(), 0);

    local.shutdown();
    remote.shutdown();
    reap(children);
}

#[test]
fn a_mute_worker_is_cut_by_the_deadline_and_its_chunks_recovered() {
    // Tight liveness so the test is fast: probes every 60 ms, a
    // worker is dead after 600 ms of silence — the master's terms, and
    // every worker's too, which is what a real fleet does.
    let ms = Duration::from_millis;
    let tight = Config { liveness: Some(ms(600)), ..fleet() };

    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let healthy = spawn_honest(&endpoint, &tight, 2);
    // From its 2nd data frame on this worker swallows every outbound
    // frame — results and its own heartbeats — while happily reading.
    let mute = spawn_in_process(&endpoint, &tight, Some((Fault::Mute, 2)));
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &tight).unwrap();
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    let started = Instant::now();
    for round in 0..5u64 {
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
    assert!(mute.fired(), "the mute:2 fault never fired");
    assert_eq!(remote.dead_workers(), 1, "the mute worker was never declared dead");
    // The detection bound: with a 600 ms deadline, the whole exercise —
    // including the round that stalls on the mute worker — must finish
    // in a few seconds, not the 10 s default-deadline regime.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "mute-worker detection took {:?}: the configured deadline did not bound it",
        started.elapsed()
    );

    local.shutdown();
    remote.shutdown();
    // All three workers end orderly: the healthy pair via shutdown
    // frames, the mute one when the master drops its link and the
    // closing socket ends its serve loop (its own sends being swallowed
    // never made it error out).
    join_all(healthy);
    mute.join();
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
    let mut remote =
        RuntimeSession::accept_remote(&platform, time_scale, &listener, &fleet()).unwrap();

    let q = 6;
    let a = random_matrix(5, 7, q, 9700);
    let b = random_matrix(7, 9, q, 9800);
    let c0 = random_matrix(5, 9, q, 9900);

    // --- Leg 1: the product run aborts... ---------------------------
    remote.set_run_deadline(Some(Duration::from_millis(5)));
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
    remote.set_run_deadline(None);
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

    // --- Leg 2: LU on a paced fleet of its own, same contract. --------
    // Every frame is metered at its true size in blocks, so pace the
    // blocks: at 0.2 ms each, step 0's panel exchange alone (20 blocks out,
    // 20 back) breaches 5 ms.
    let lu_platform = Platform::homogeneous(2, 1.0, 1.0, 1000).unwrap();
    let lu_listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let lu_endpoint = lu_listener.endpoint();
    let lu_children: Vec<Child> = (0..2).map(|_| spawn_worker(&lu_endpoint)).collect();
    // This fleet is handed its budget at the door.
    let budgeted = Config { run_deadline: Some(Duration::from_millis(5)), ..fleet() };
    let mut lu_remote =
        RuntimeSession::accept_remote(&lu_platform, 2e-4, &lu_listener, &budgeted).unwrap();
    let matrix = random_diagonally_dominant(6, 4, 9600);

    let aborted = factor(&lu_remote, &matrix, 2);
    assert!(aborted.aborted, "a 5 ms budget must abort a paced factorization");
    assert_eq!(lu_remote.dead_workers(), 0, "abort must not condemn any link");

    lu_remote.set_run_deadline(None);
    let recovered = factor(&lu_remote, &matrix, 2);
    assert!(!recovered.aborted);
    let healthy = run_lu(&lu_platform, &matrix, 2, 0.0);
    assert_eq!(
        recovered.packed.max_abs_diff(&healthy.packed),
        0.0,
        "the factorization after an abort must be bit-identical to a fresh session's"
    );
    assert_eq!(lu_remote.dead_workers(), 0);

    lu_remote.shutdown();
    remote.shutdown();
    reap(children);
    reap(lu_children);
}
