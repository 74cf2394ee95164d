//! A worker that has computed its chunk is asked for it at once: the
//! master sends each chunk's collect request right behind the A column of
//! its last step, so no worker's request waits for another worker's rows.
//!
//! A round's collects are the maximal stretch of `CResult` receives on the
//! master's port that no other block-bearing frame interrupts — a round of
//! a product's chunks, or the trailing update of one LU step, between its
//! panel exchanges. For every worker whose rows the stretch receives, the
//! last collect request (a control frame) sent to it before its first row
//! of the stretch must precede the stretch's first receive. Were requests
//! sent at each chunk's `Collect`, the second worker's would follow the
//! first worker's rows.
//!
//! One `#[test]`: captures are process-global, so the two runs take turns.

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::factor;
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerId};
use mwp_trace::record::Capture;
use mwp_trace::{Activity, ActivityKind, Resource, Trace};

/// The master port's transfers of `trace`, in time order.
fn transfers(trace: &Trace) -> Vec<&Activity> {
    let mut port: Vec<&Activity> = trace
        .activities
        .iter()
        .filter(|a| a.resource == Resource::MasterPort && matches!(a.kind, ActivityKind::Send | ActivityKind::Recv))
        .collect();
    port.sort_by_key(|a| a.start);
    port
}

/// Check every round of `trace` as the header says; returns how many
/// rounds, and how many chunk collects in all, it checked.
fn early_requests(trace: &Trace, what: &str) -> (usize, usize) {
    let port = transfers(trace);
    let is_row = |a: &Activity| a.kind == ActivityKind::Recv && a.label == "C result";
    let is_request = |a: &Activity, w: WorkerId| a.kind == ActivityKind::Send && a.label == "control" && a.peer == w;
    let (mut rounds, mut collects, mut at) = (0, 0, 0);
    while at < port.len() {
        if !is_row(port[at]) {
            at += 1;
            continue;
        }
        // The round: rows, and the bytes-free frames between them, until
        // the next block-bearing frame that is not a row.
        let end = (at..port.len()).find(|&x| !is_row(port[x]) && port[x].bytes > 0).unwrap_or(port.len());
        let mut workers: Vec<WorkerId> = port[at..end].iter().filter(|a| is_row(a)).map(|a| a.peer).collect();
        workers.dedup();
        for &w in &workers {
            let first_row = (at..end).find(|&x| is_row(port[x]) && port[x].peer == w).expect("a row of w");
            let request = (0..first_row).rev().find(|&x| is_request(port[x], w));
            assert!(
                request.is_some_and(|x| x < at),
                "{what}: round {rounds}: worker {w:?}'s collect request went out after the round's first row"
            );
        }
        (rounds, collects, at) = (rounds + 1, collects + workers.len(), end);
    }
    (rounds, collects)
}

#[test]
fn every_collect_request_goes_out_before_the_rounds_first_row() {
    let platform = Platform::homogeneous(2, 1.0, 4.0, 60).unwrap(); // µ = 6
    let q = 4;

    // HoLM, 12 × 4 × 18 blocks: six 6 × 6 chunks, three rounds of two.
    let (a, b, c) = (random_matrix(12, 4, q, 81), random_matrix(4, 18, q, 82), random_matrix(12, 18, q, 83));
    let capture = Capture::begin();
    let session = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
    let out = session.run_holm(&a, &b, c).unwrap();
    let trace = capture.end();
    session.shutdown();
    assert_eq!((out.workers_used, out.chunk_side), (2, 6), "the run this test is sized for");
    assert_eq!(early_requests(&trace, "HoLM"), (3, 6));

    // LU, 12 × 12 blocks in µ = 2 panels: five trailing updates, each a
    // band per worker; the first two bands are wider than µ = 6, so those
    // updates take two rounds and the last three one.
    let matrix = random_diagonally_dominant(12, q, 84);
    let capture = Capture::begin();
    let session = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
    assert!(!factor(&session, &matrix, 2).aborted);
    let trace = capture.end();
    session.shutdown();
    assert_eq!(early_requests(&trace, "LU"), (7, 14));
}
