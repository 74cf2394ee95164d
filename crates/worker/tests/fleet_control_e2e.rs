//! Fleet control plane end-to-end: authenticated enrollment, membership
//! epochs, and automatic re-planning, proven over real `mwp-worker`
//! processes on loopback TCP.
//!
//! Every master here accepts its fleet under the same literal [`Config`]
//! secret and each spawned worker is passed a secret explicitly, so the
//! HMAC challenge/response handshake is live throughout. The tests then
//! prove the acceptance story:
//!
//! - an unauthenticated (wrong-secret), non-speaking (`badhello`),
//!   corrupted-MAC (`badauth`), or stale-epoch connection is rejected
//!   at the door while the master keeps serving the live fleet
//!   bit-identically;
//! - pruning the whole fleet leaves an alive-but-empty session whose
//!   runs return `RuntimeError::EmptyFleet`, and an `admit` revives it;
//! - every membership change advances the epoch and forces a fresh
//!   resource selection (observable via `replans()`), whose results are
//!   bit-identical to a never-churned reference star on the same final
//!   fleet;
//! - a `--reconnect` worker re-enrolls across an orderly session cycle
//!   and the new session's membership machinery keeps advancing.

use mwp_blockmat::fill::random_matrix;
use mwp_blockmat::BlockMatrix;
use mwp_core::runtime::RuntimeError;
use mwp_core::session::RuntimeSession;
use mwp_msg::transport::{self, TransportListener};
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerParams};
use std::process::Child;
use std::time::{Duration, Instant};

mod common;
use common::{fleet, reap, reap_failed, SECRET};

/// The worker parameters every fleet member here enrolls with.
const PARAMS: WorkerParams = WorkerParams { c: 4.0, w: 1.0, m: 20 };

/// Launch one worker process dialing `endpoint` with its own fleet
/// secret (the impostor tests pass a wrong one) and optional
/// `MWP_FAULT` / `--reconnect`.
fn spawn_worker(endpoint: &str, secret: &str, fault: &str, reconnect: bool) -> Child {
    let mut cmd = common::worker_command(endpoint, fault);
    cmd.env("MWP_FLEET_SECRET", secret);
    if reconnect {
        // A shorter retry window so the veteran worker gives up (and
        // exits 0) promptly once the listener is gone for good.
        cmd.args(["--reconnect", "--wait-ms", "2000"]);
    }
    cmd.spawn().expect("spawn mwp-worker")
}

/// Poll until `n` workers are flagged dead (the in-pumps raise the flag
/// on socket EOF without any run in flight).
fn wait_for_dead(session: &RuntimeSession, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while session.dead_workers() < n {
        assert!(Instant::now() < deadline, "death flags never raised for {n} killed workers");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Round inputs shared by every test (several chunks per round at
/// µ = 20 blocks, so each enrolled worker gets work).
fn holm_round(round: u64) -> (BlockMatrix, BlockMatrix, BlockMatrix) {
    let q = 6;
    let a = random_matrix(5, 7, q, 7100 + round);
    let b = random_matrix(7, 9, q, 7200 + round);
    let c0 = random_matrix(5, 9, q, 7300 + round);
    (a, b, c0)
}

/// Run one ORROML round on both stars and demand bit-identity.
fn compare_round(remote: &RuntimeSession, reference: &RuntimeSession, round: u64, label: &str) {
    let (a, b, c0) = holm_round(round);
    let over_socket = remote.run_all_workers(&a, &b, c0.clone()).unwrap();
    let over_channel = reference.run_all_workers(&a, &b, c0).unwrap();
    assert_eq!(
        over_socket.c.max_abs_diff(&over_channel.c),
        0.0,
        "{label}: result must be bit-identical to the reference star"
    );
}

#[test]
fn impostors_are_rejected_while_the_master_keeps_serving() {
    let platform = Platform::homogeneous(2, PARAMS.c, PARAMS.w, PARAMS.m).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let mut children: Vec<Child> = (0..2).map(|_| spawn_worker(&endpoint, SECRET, "", false)).collect();
    let mut remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
    let reference = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
    assert_eq!(remote.epoch(), 1);

    compare_round(&remote, &reference, 0, "authenticated fleet");

    // (a) A worker process without the fleet secret: its hello MAC is
    // keyed wrong, the master rejects with REJECT_AUTH, and the worker
    // fails fast instead of hammering the door.
    let impostor = spawn_worker(&endpoint, "not-the-fleet-secret", "", false);
    let err = remote.admit(&listener, PARAMS).expect_err("wrong secret must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    reap_failed(impostor, "wrong secret");

    // (b) A worker holding the right secret whose hello MAC is corrupted
    // in flight (`MWP_FAULT=badauth`): same rejection.
    let impostor = spawn_worker(&endpoint, SECRET, "badauth", false);
    let err = remote.admit(&listener, PARAMS).expect_err("corrupted MAC must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    reap_failed(impostor, "badauth");

    // (c) A peer that does not speak the handshake at all
    // (`MWP_FAULT=badhello` answers the challenge with an unrelated
    // frame): rejected as an unsupported protocol.
    let impostor = spawn_worker(&endpoint, SECRET, "badhello", false);
    let err = remote.admit(&listener, PARAMS).expect_err("non-hello must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    reap_failed(impostor, "badhello");

    // (d) A correctly-authenticated dialer presenting a stale membership
    // epoch — a replayed enrollment from a pruned fleet generation. The
    // master refuses it at the door.
    let stale_endpoint = endpoint.clone();
    let stale_dialer = std::thread::spawn(move || {
        let stream = transport::connect_with_retry(&stale_endpoint, Duration::from_secs(10))
            .expect("dial the master");
        transport::enroll_with(stream, None, b"stale-replay", 99, &fleet())
            .map(|(_, welcome)| welcome.epoch)
            .map_err(|e| e.kind())
    });
    let err = remote.admit(&listener, PARAMS).expect_err("stale epoch must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    assert_eq!(stale_dialer.join().unwrap(), Err(std::io::ErrorKind::PermissionDenied));

    // Four failed break-ins later: the fleet is untouched, the epoch
    // never moved, and the master still serves bit-identical rounds.
    assert_eq!(remote.workers(), 2);
    assert_eq!(remote.epoch(), 1);
    compare_round(&remote, &reference, 1, "after four rejected impostors");

    // And the door still opens for a legitimate newcomer.
    children.push(spawn_worker(&endpoint, SECRET, "", false));
    remote.admit(&listener, PARAMS).unwrap();
    assert_eq!(remote.workers(), 3);
    assert_eq!(remote.epoch(), 2);
    let platform3 = Platform::homogeneous(3, PARAMS.c, PARAMS.w, PARAMS.m).unwrap();
    let reference3 = RuntimeSession::with_transport(&platform3, 0.0, TransportMode::Channel);
    compare_round(&remote, &reference3, 2, "grown fleet");

    reference.shutdown();
    reference3.shutdown();
    remote.shutdown();
    reap(children);
}

#[test]
fn pruning_the_whole_fleet_empties_it_and_an_admit_revives_it() {
    let platform = Platform::homogeneous(2, PARAMS.c, PARAMS.w, PARAMS.m).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let children: Vec<Child> = (0..2).map(|_| spawn_worker(&endpoint, SECRET, "", false)).collect();
    let mut remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
    let reference = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    compare_round(&remote, &reference, 0, "healthy fleet");
    assert_eq!(remote.replans(), 1);

    // SIGKILL the entire fleet. The in-pumps see the sockets EOF and
    // raise every death flag with no run in flight.
    for mut child in children {
        child.kill().expect("SIGKILL a worker");
        assert!(!child.wait().expect("reap the victim").success());
    }
    wait_for_dead(&remote, 2);

    // Pruning everything leaves the session alive but empty: the epoch
    // advances, the platform is gone, and runs refuse cleanly instead of
    // planning against a fleet that no longer exists.
    assert_eq!(remote.prune_dead(), 2);
    assert_eq!(remote.workers(), 0);
    assert!(remote.platform().is_none(), "an emptied fleet has no platform");
    assert_eq!(remote.epoch(), 2);
    let (a, b, c0) = holm_round(1);
    let err = remote.run_all_workers(&a, &b, c0).expect_err("empty fleet must refuse runs");
    assert!(matches!(err, RuntimeError::EmptyFleet), "unexpected error: {err}");

    // Admit a fresh worker into the emptied fleet: the session revives,
    // the epoch advances again, and the next run re-plans from scratch —
    // bit-identical to a never-churned single-worker reference star.
    let fresh = spawn_worker(&endpoint, SECRET, "", false);
    remote.admit(&listener, PARAMS).unwrap();
    assert_eq!(remote.workers(), 1);
    assert_eq!(remote.epoch(), 3);
    let platform1 = Platform::homogeneous(1, PARAMS.c, PARAMS.w, PARAMS.m).unwrap();
    let reference1 = RuntimeSession::with_transport(&platform1, 0.0, TransportMode::Channel);
    compare_round(&remote, &reference1, 2, "revived fleet");
    assert_eq!(remote.replans(), 2, "the revived fleet must have re-planned");

    reference.shutdown();
    reference1.shutdown();
    remote.shutdown();
    reap(vec![fresh]);
}

#[test]
fn membership_churn_forces_a_fresh_resource_selection() {
    let platform = Platform::homogeneous(2, PARAMS.c, PARAMS.w, PARAMS.m).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let mut children: Vec<Child> = (0..2).map(|_| spawn_worker(&endpoint, SECRET, "", false)).collect();
    let mut remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
    let reference = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    // First run plans; an identically-shaped second run reuses the plan.
    compare_round(&remote, &reference, 0, "round 0");
    assert_eq!(remote.replans(), 1);
    compare_round(&remote, &reference, 1, "round 1");
    assert_eq!(remote.replans(), 1, "same fleet, same shape: the plan must be reused");
    let before = remote.placement().expect("a planned session records its placement");
    assert_eq!(before.len(), 2);

    // Grow the fleet: the epoch advances, the cached selection is stale,
    // and the next run must re-plan over the newcomer — matching a
    // never-churned three-worker reference bit-for-bit.
    children.push(spawn_worker(&endpoint, SECRET, "", false));
    remote.admit(&listener, PARAMS).unwrap();
    assert_eq!(remote.epoch(), 2);
    let platform3 = Platform::homogeneous(3, PARAMS.c, PARAMS.w, PARAMS.m).unwrap();
    let reference3 = RuntimeSession::with_transport(&platform3, 0.0, TransportMode::Channel);
    compare_round(&remote, &reference3, 2, "grown fleet");
    assert_eq!(remote.replans(), 2, "a membership change must force a fresh selection");
    let after = remote.placement().expect("the re-plan records a fresh placement");
    assert_eq!(after.len(), 3, "the fresh selection must see the whole grown fleet");

    reference.shutdown();
    reference3.shutdown();
    remote.shutdown();
    reap(children);
}

#[test]
fn a_reconnect_worker_reenrolls_across_sessions() {
    let platform1 = Platform::homogeneous(1, PARAMS.c, PARAMS.w, PARAMS.m).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let reference1 = RuntimeSession::with_transport(&platform1, 0.0, TransportMode::Channel);

    // Session A: the --reconnect veteran enrolls and serves a round.
    let veteran = spawn_worker(&endpoint, SECRET, "", true);
    let session_a = RuntimeSession::accept_remote(&platform1, 0.0, &listener, &fleet()).unwrap();
    assert_eq!(session_a.epoch(), 1);
    compare_round(&session_a, &reference1, 0, "session A");
    session_a.shutdown();

    // The orderly close sends the veteran back to the listener; a new
    // session on the same door re-authenticates and re-admits it.
    let mut session_b =
        RuntimeSession::accept_remote(&platform1, 0.0, &listener, &fleet()).unwrap();
    assert_eq!(session_b.epoch(), 1);
    compare_round(&session_b, &reference1, 1, "session B, re-enrolled veteran");

    // The new session's membership machinery keeps advancing: admit a
    // newcomer next to the veteran, re-plan, and match a never-churned
    // two-worker reference bit-for-bit.
    let newcomer = spawn_worker(&endpoint, SECRET, "", false);
    session_b.admit(&listener, PARAMS).unwrap();
    assert_eq!(session_b.epoch(), 2);
    assert_eq!(session_b.workers(), 2);
    let platform2 = Platform::homogeneous(2, PARAMS.c, PARAMS.w, PARAMS.m).unwrap();
    let reference2 = RuntimeSession::with_transport(&platform2, 0.0, TransportMode::Channel);
    compare_round(&session_b, &reference2, 2, "session B, grown fleet");

    reference1.shutdown();
    reference2.shutdown();
    session_b.shutdown();
    // The newcomer exits 0 on the session close; the veteran re-dials,
    // finds the master gone for good once the listener drops, and exits
    // 0 after its --wait-ms window.
    drop(listener);
    reap(vec![veteran, newcomer]);
}
