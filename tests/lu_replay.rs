//! What the pivot-size search prices is what `factor` runs.
//!
//! `mwp_lu::heterogeneous::best_pivot_size` prices each µ by replaying
//! `lower(lu_schedule(r, µ, chunk_sides(..)))` on the simulator. Here a
//! factorization runs on a channel fleet whose workers hold different
//! chunk sides (`m` = 60, 21 and 32: sides 6, 3 and 4), and the
//! block-bearing frames the master's port carried must be those lowered
//! frames that carry blocks one for one — send or receive, peer, blocks.
//! So must those of the benchmark's shape (12 × 12 blocks, µ = 2, two
//! workers of `m` = 100 000), whose workers own their rows for the whole
//! run; the mixed fleet's memories cannot hold theirs, so its rows
//! stream, every chunk out and back within its step.
//!
//! One `#[test]`: captures are process-global.

use mwp_blockmat::fill::random_diagonally_dominant;
use mwp_blockmat::lu::{lu_blocked_in_place, Dense};
use mwp_core::schedule::PortOp;
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::factor;
use mwp_lu::schedule::{chunk_sides, lower, lu_schedule, owners, LuOp};
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerId, WorkerParams};
use mwp_sim::Decision;
use mwp_trace::record::Capture;
use mwp_trace::{ActivityKind, Resource};

/// Factor an `r`-block matrix of side-`q` blocks in `mu`-block panels on
/// a channel fleet of `platform`, check the factors against the serial
/// ones bit for bit and the port's block-bearing frames against the
/// lowered schedule's that carry blocks, one for one; returns the schedule
/// and the blocks the run moved.
fn port_carries_the_lowered_schedule(platform: &Platform, r: usize, mu: usize, q: usize, seed: u64) -> (Vec<LuOp>, u64) {
    let sides = chunk_sides(platform, r, mu);
    let matrix = random_diagonally_dominant(r, q, seed);

    let capture = Capture::begin();
    let session = RuntimeSession::with_transport(platform, 0.0, TransportMode::Channel);
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
    let ops = lu_schedule(r, mu, &sides);
    let scheduled: Vec<(ActivityKind, WorkerId, u64)> = lower(&ops)
        .into_iter()
        .map(|frame| match frame {
            Decision::Send { to, blocks, .. } => (ActivityKind::Send, to, blocks),
            Decision::Recv { from, blocks, .. } => (ActivityKind::Recv, from, blocks),
            other => panic!("the lowering only transfers: {other:?}"),
        })
        .filter(|transfer| transfer.2 > 0)
        .collect();
    assert_eq!(carried, scheduled, "the port's block-bearing frames are the lowered schedule's");
    assert_eq!(carried.iter().map(|t| t.2).sum::<u64>(), out.blocks_moved);
    (ops, out.blocks_moved)
}

/// How many of `ops`' chunks go out, and how many come back.
fn shipped_and_collected(ops: &[LuOp]) -> (usize, usize) {
    let count = |collect: bool| {
        ops.iter()
            .filter_map(LuOp::chunk)
            .filter(|op| if collect { matches!(op, PortOp::Collect { .. }) } else { matches!(op, PortOp::SendC { .. }) })
            .count()
    };
    (count(false), count(true))
}

#[test]
fn a_mixed_fleets_port_carries_the_lowered_schedule() {
    let platform = Platform::new([60, 21, 32].map(|m| WorkerParams::new(1.0, 1.0, m)).to_vec()).unwrap();
    let (r, mu, q) = (12, 2, 4);
    let sides = chunk_sides(&platform, r, mu);
    assert_eq!(sides, [6, 3, 4]);
    let (ops, _) = port_carries_the_lowered_schedule(&platform, r, mu, q, 75);
    let takes = |frame: &Decision| matches!(frame, Decision::Send { to: WorkerId(1), .. });
    assert!(lower(&ops).iter().any(takes), "the side-3 worker takes chunks");
    // Each band's pieces are seated on its band's worker: 27 chunks, each
    // out and back.
    assert!(owners(r, mu, &sides).is_none(), "the rows stream");
    assert_eq!(shipped_and_collected(&ops), (27, 27), "chunks shipped and collected");

    // Two workers of m = 45 (sides of 5) stream the same matrix, every
    // chunk out and back within its step.
    let tight = Platform::homogeneous(2, 1.0, 1.0, 45).unwrap();
    let (ops, _) = port_carries_the_lowered_schedule(&tight, r, mu, q, 77);
    let (shipped, collected) = shipped_and_collected(&ops);
    assert!(shipped > 0 && shipped == collected, "{shipped} chunks shipped, {collected} collected");

    let bench = Platform::homogeneous(2, 1.0, 1.0, 100_000).unwrap();
    assert_eq!(chunk_sides(&bench, 12, 2), [10, 10]);
    let (ops, moved) = port_carries_the_lowered_schedule(&bench, 12, 2, 4, 76);
    assert_eq!(moved, 144 + 84 + 80 + 60, "rows dealt, pivot replies, forwards and L₂₁ replies");
    assert!(matches!(ops[0], LuOp::Deal { .. }) && shipped_and_collected(&ops) == (0, 0), "the rows are owned");
}
