//! The worker packs each step's B row once, whole: a run on a held
//! session performs exactly one B pack per `Step` op of its schedule —
//! HoLM and the heterogeneous two-phase scheme, over channels and over
//! loopback TCP, whose workers are threads of this process.
//!
//! The pack counter (`kernel::pack_count`) is process-wide, so this file
//! is a test binary of its own with a single test: nothing else in the
//! process packs while it counts.

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::random_matrix;
use mwp_blockmat::kernel::pack_count;
use mwp_core::schedule::{PortOp, Schedule};
use mwp_msg::TransportMode;

/// `Step` ops of `schedule`: the B rows its run ships.
fn steps(schedule: &Schedule) -> u64 {
    schedule.ops.iter().filter(|op| matches!(op, PortOp::Step { .. })).count() as u64
}

/// B packs performed while `run` runs.
fn packs<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = pack_count();
    let out = run();
    (pack_count() - before, out)
}

#[test]
fn runs_pack_once_per_step_op() {
    let homogeneous = Platform::homogeneous(3, 4.0, 1.0, 60).unwrap();
    let heterogeneous = Platform::new(vec![
        WorkerParams::new(2.0, 2.0, 60),
        WorkerParams::new(3.0, 3.0, 45),
        WorkerParams::new(5.0, 1.0, 32),
    ])
    .unwrap();
    let (r, t, s, q) = (7, 5, 9, 8);
    let problem = Partition::from_blocks(r, s, t, q);
    let a = random_matrix(r, t, q, 1);
    let b = random_matrix(t, s, q, 2);
    let c0 = random_matrix(r, s, q, 3);
    for mode in [TransportMode::Channel, TransportMode::Tcp] {
        // Two runs each on one held session: the second reuses the
        // storage and the pack the first left warm.
        let session = RuntimeSession::with_transport(&homogeneous, 0.0, mode);
        for round in 0..2 {
            let (packed, out) = packs(|| session.run_holm(&a, &b, c0.clone()).unwrap());
            let schedule = Schedule::algorithm1(&problem, out.chunk_side, out.workers_used, 1);
            assert_eq!(packed, steps(&schedule), "HoLM over {mode:?}, round {round}");
        }
        session.shutdown();

        let session = RuntimeSession::with_transport(&heterogeneous, 0.0, mode);
        let mu: Vec<usize> =
            heterogeneous.workers().iter().map(|w| MemoryLayout::MaxReuseOverlapped.mu(w.m)).collect();
        let schedule = Schedule::two_phase(&heterogeneous, &mu, SelectionRule::Global, &problem);
        assert!(schedule.workers().len() > 1, "the two-phase run spreads over the fleet");
        for round in 0..2 {
            let (packed, _) = packs(|| session.run_heterogeneous(&a, &b, c0.clone(), SelectionRule::Global).unwrap());
            assert_eq!(packed, steps(&schedule), "two-phase over {mode:?}, round {round}");
        }
        session.shutdown();
    }
}
