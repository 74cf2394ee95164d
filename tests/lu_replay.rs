//! What the pivot-size search prices is what `factor` runs.
//!
//! `mwp_lu::heterogeneous::best_pivot_size` prices each µ by replaying
//! `lower(lu_schedule(r, µ, chunk_sides(..)))` on the simulator. Here a
//! factorization runs on a channel fleet whose workers hold different
//! chunk sides (`m` = 60, 21 and 32: sides 6, 3 and 4), and the
//! block-bearing frames the master's port carried must be those lowered
//! frames one for one — send or receive, peer, blocks.
//!
//! One `#[test]`: captures are process-global.

use mwp_blockmat::fill::random_diagonally_dominant;
use mwp_blockmat::lu::{lu_blocked_in_place, Dense};
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::factor;
use mwp_lu::schedule::{chunk_sides, lower, lu_schedule};
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerId, WorkerParams};
use mwp_sim::Decision;
use mwp_trace::record::Capture;
use mwp_trace::{ActivityKind, Resource};

#[test]
fn a_mixed_fleets_port_carries_the_lowered_schedule() {
    let platform = Platform::new([60, 21, 32].map(|m| WorkerParams::new(1.0, 1.0, m)).to_vec()).unwrap();
    let (r, mu, q) = (12, 2, 4);
    let sides = chunk_sides(&platform, r, mu);
    assert_eq!(sides, [6, 3, 4]);
    let matrix = random_diagonally_dominant(r, q, 75);

    let capture = Capture::begin();
    let session = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
    let out = factor(&session, &matrix, mu);
    let trace = capture.end();
    session.shutdown();
    assert!(!out.aborted);
    let mut serial = Dense::from_blocks(&matrix);
    lu_blocked_in_place(&mut serial, mu * q);
    assert_eq!(out.packed, serial, "the serial factors, bit for bit");

    let block_bytes = (q * q * 8) as u64;
    let mut spans: Vec<_> = trace
        .activities
        .iter()
        .filter(|a| a.resource == Resource::MasterPort && a.bytes > 0)
        .filter(|a| matches!(a.kind, ActivityKind::Send | ActivityKind::Recv))
        .collect();
    spans.sort_by_key(|a| a.start);
    let carried: Vec<(ActivityKind, WorkerId, u64)> =
        spans.iter().map(|a| (a.kind, a.peer, a.bytes / block_bytes)).collect();
    let scheduled: Vec<(ActivityKind, WorkerId, u64)> = lower(&lu_schedule(r, mu, &sides))
        .into_iter()
        .map(|frame| match frame {
            Decision::Send { to, blocks, .. } => (ActivityKind::Send, to, blocks),
            Decision::Recv { from, blocks, .. } => (ActivityKind::Recv, from, blocks),
            other => panic!("the lowering only transfers: {other:?}"),
        })
        .collect();
    assert!(scheduled.iter().any(|&(_, peer, _)| peer == WorkerId(1)), "the side-3 worker takes chunks");
    assert_eq!(carried, scheduled, "the port's block-bearing frames are the lowered schedule's");
    assert_eq!(carried.iter().map(|t| t.2).sum::<u64>(), out.blocks_moved);
}
