//! The order of block-bearing frames on the master's port is pinned.
//!
//! Each runtime is one `Schedule` walked by one executor, so "the same op
//! order as before" is a property of the generators — asserted here, not
//! argued: four fixed failure-free runs are captured on the channel
//! transport, unpaced, and a CRC32C over the sequence of block-bearing
//! (`bytes > 0`) `MasterPort` send/receive spans `(kind, peer, bytes)`
//! must equal the digest recorded at the commit before the run's schedule
//! was data (`mwp_core::schedule` for the three products) or, for the
//! factorization (`mwp_lu::schedule`), when its trailing update became a
//! product. A paced run's wall time is blocks × link cost *in this order*,
//! so the digests are also what keeps the benchmark's paced heterogeneous
//! control workload where it was.
//!
//! One `#[test]`: captures are process-global, so the four runs take
//! turns.

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::BlockMatrix;
use mwp_core::runtime::RunOutcome;
use mwp_core::selection::incremental::SelectionRule;
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::factor;
use mwp_msg::checksum::crc32c;
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerParams};
use mwp_trace::record::Capture;
use mwp_trace::{ActivityKind, Resource, Trace};

/// Run `f` on a fresh channel-transport session for `platform` over
/// fixed random `r × t × s` inputs, and digest the port's wire order.
fn digest(
    platform: &Platform,
    (r, t, s): (usize, usize, usize),
    f: impl FnOnce(&RuntimeSession, &BlockMatrix, &BlockMatrix, BlockMatrix) -> RunOutcome,
) -> u32 {
    let q = 4;
    let a = random_matrix(r, t, q, 71);
    let b = random_matrix(t, s, q, 72);
    let c0 = random_matrix(r, s, q, 73);
    let capture = Capture::begin();
    let session = RuntimeSession::with_transport(platform, 0.0, TransportMode::Channel);
    f(&session, &a, &b, c0);
    let trace = capture.end();
    session.shutdown();
    wire_digest(&trace)
}

/// CRC32C over the block-bearing port spans of `trace`, in order.
fn wire_digest(trace: &Trace) -> u32 {
    let mut wire = Vec::new();
    for span in &trace.activities {
        let kind = match span.kind {
            ActivityKind::Send => 0u8,
            ActivityKind::Recv => 1u8,
            _ => continue,
        };
        if span.resource == Resource::MasterPort && span.bytes > 0 {
            wire.push(kind);
            wire.extend((span.peer.index() as u32).to_le_bytes());
            wire.extend(span.bytes.to_le_bytes());
        }
    }
    crc32c(&wire)
}

#[test]
fn block_frame_order_on_the_port_is_unchanged() {
    let holm = digest(&Platform::homogeneous(4, 4.0, 1.0, 60).unwrap(), (5, 7, 9), |s, a, b, c| {
        s.run_holm(a, b, c).unwrap()
    });
    // 7 × 13 at µ = 4 on 3 workers: 8 chunks, so the last round is ragged.
    let orroml =
        digest(&Platform::homogeneous(3, 4.0, 1.0, 32).unwrap(), (7, 3, 13), |s, a, b, c| {
            s.run_all_workers(a, b, c).unwrap()
        });
    // The paper's Table 2 platform: µ = (6, 18, 10).
    let table2 = Platform::new(vec![
        WorkerParams::new(2.0, 2.0, 60),
        WorkerParams::new(3.0, 3.0, 396),
        WorkerParams::new(5.0, 1.0, 140),
    ])
    .unwrap();
    let het = digest(&table2, (8, 10, 12), |s, a, b, c| {
        s.run_heterogeneous(a, b, c, SelectionRule::Global).unwrap()
    });
    // The perf shape of LU at a small q: 12 × 12 blocks, µ = 2, 2 workers.
    let lu = {
        let matrix = random_diagonally_dominant(12, 4, 74);
        let capture = Capture::begin();
        let platform = Platform::homogeneous(2, 1.0, 1.0, 1000).unwrap();
        let session = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);
        assert!(!factor(&session, &matrix, 2).aborted);
        let trace = capture.end();
        session.shutdown();
        wire_digest(&trace)
    };
    // The LU digest was re-captured when the factorization's trailing
    // update became the product's chunk exchanges (122 frames a run where
    // the row-group exchanges took 51); the three product digests are the
    // ones recorded before any schedule was data.
    assert_eq!(
        (holm, orroml, het, lu),
        (2_667_921_220, 2_772_815_128, 1_010_825_030, 82_459_003),
        "wire order changed: (run_holm, run_all_workers, run_heterogeneous, factor) digests"
    );
}
