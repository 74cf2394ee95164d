//! One session admits every run against its workers' memory: a run keeps
//! its chunks' `µ² + 4µ` blocks on each worker it is placed on, and opens
//! as soon as they fit beside the blocks of the runs already open. A run
//! that needs fewer workers than the fleet has goes to the ones holding
//! the fewest blocks. Runs that fit overlap; the `Run` spans a
//! [`Capture`] records show it.
//!
//! Captures are process-global, so the tests take turns on [`CAPTURE`].

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::BlockMatrix;
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::factor;
use mwp_platform::Platform;
use mwp_trace::record::Capture;
use mwp_trace::{ActivityKind, Resource, Trace};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

static CAPTURE: Mutex<()> = Mutex::new(());

/// The most `Run` spans of `trace` open at one instant.
fn most_runs_open(trace: &Trace) -> usize {
    let mut edges: Vec<(f64, i32)> = trace
        .activities
        .iter()
        .filter(|a| a.kind == ActivityKind::Run)
        .flat_map(|a| [(a.start.value(), 1), (a.end.value(), -1)])
        .collect();
    // At a tie, a run that ends closes before the next one opens.
    edges.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let (mut open, mut most) = (0, 0);
    for (_, step) in edges {
        open += step;
        most = most.max(open);
    }
    most as usize
}

/// A 1 × 1 × 1 product of `q = 4` blocks: one chunk of side 1, five
/// blocks of its worker's memory.
fn tiny_product(seed: u64) -> (BlockMatrix, BlockMatrix, BlockMatrix) {
    (random_matrix(1, 1, 4, seed), random_matrix(1, 1, 4, seed + 1), random_matrix(1, 1, 4, seed + 2))
}

#[test]
fn twenty_small_runs_overlap_on_one_session() {
    let _turn = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    // m = 100 holds twenty five-block footprints. Paced links make each
    // run's four transfers hold the one port for 2 ms, so a run stays
    // open while the others queue behind it.
    let platform = Platform::homogeneous(2, 1.0, 1.0, 100).unwrap();
    let session = RuntimeSession::new(&platform, 2e-3);
    let jobs: Vec<_> = (0..20u64)
        .map(|j| {
            let (a, b, c0) = tiny_product(100 + 3 * j);
            let solo = session.run_holm(&a, &b, c0.clone()).unwrap();
            assert_eq!((solo.workers_used, solo.chunk_side), (1, 1), "the run this test is sized for");
            (a, b, c0, solo.c)
        })
        .collect();
    let start = Barrier::new(jobs.len());
    let capture = Capture::begin();
    std::thread::scope(|scope| {
        for (a, b, c0, solo) in &jobs {
            let (session, start) = (&session, &start);
            scope.spawn(move || {
                start.wait();
                let out = session.run_holm(a, b, c0.clone()).unwrap();
                assert_eq!(out.c.max_abs_diff(solo), 0.0, "concurrent vs solo");
            });
        }
    });
    let trace = capture.end();
    let most = most_runs_open(&trace);
    assert!(most >= 16, "at most {most} of 20 runs were open at once");
    assert_eq!(session.dead_workers(), 0);
    assert_eq!(session.shutdown(), 2);
}

#[test]
fn a_factorization_and_a_product_run_at_once() {
    let _turn = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    // m = 110: LU deals each worker chunks of side 6, 60 blocks, which
    // leaves 50 for a 1 × 1 × 1 product's 5. Products run one after the
    // other while the factorization runs, so two `Run` spans open at once
    // are the factorization and a product.
    let platform = Platform::homogeneous(2, 1.0, 1.0, 110).unwrap();
    let session = RuntimeSession::new(&platform, 2e-4);
    let matrix = random_diagonally_dominant(8, 4, 60);
    let (a, b, c0) = tiny_product(61);
    let factors = factor(&session, &matrix, 2).packed;
    let product = session.run_holm(&a, &b, c0.clone()).unwrap().c;
    let (start, factored) = (Barrier::new(2), AtomicBool::new(false));
    let capture = Capture::begin();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            let packed = factor(&session, &matrix, 2).packed;
            factored.store(true, Ordering::Release);
            assert_eq!(packed, factors, "concurrent vs solo LU");
        });
        scope.spawn(|| {
            start.wait();
            while !factored.load(Ordering::Acquire) {
                let out = session.run_holm(&a, &b, c0.clone()).unwrap();
                assert_eq!(out.c, product, "concurrent vs solo product");
            }
        });
    });
    let trace = capture.end();
    assert_eq!(most_runs_open(&trace), 2, "the factorization and a product overlap");
    assert_eq!(session.dead_workers(), 0);
    assert_eq!(session.shutdown(), 2);
}

#[test]
fn a_factorization_reserves_only_the_chunks_it_deals() {
    let _turn = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    // m = 100 admits chunks of side 8, 96 blocks, but an 8 × 8-block LU in
    // panels of 2 deals none wider than its 6 × 6 trailing grid: it
    // reserves side 6, 60 blocks, and a 1 × 1 × 1 product's 5 fit beside
    // it. Reserving all 96 would leave 4, and the products would wait for
    // the factorization to end.
    let platform = Platform::homogeneous(2, 1.0, 1.0, 100).unwrap();
    let session = RuntimeSession::new(&platform, 2e-4);
    let matrix = random_diagonally_dominant(8, 4, 62);
    let (a, b, c0) = tiny_product(63);
    let factors = factor(&session, &matrix, 2).packed;
    let product = session.run_holm(&a, &b, c0.clone()).unwrap().c;
    let (start, factored) = (Barrier::new(2), AtomicBool::new(false));
    let capture = Capture::begin();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            let packed = factor(&session, &matrix, 2).packed;
            factored.store(true, Ordering::Release);
            assert_eq!(packed, factors, "concurrent vs solo LU");
        });
        scope.spawn(|| {
            start.wait();
            while !factored.load(Ordering::Acquire) {
                let out = session.run_holm(&a, &b, c0.clone()).unwrap();
                assert_eq!(out.c, product, "concurrent vs solo product");
            }
        });
    });
    let trace = capture.end();
    assert_eq!(most_runs_open(&trace), 2, "the factorization and a product overlap");
    assert_eq!(session.dead_workers(), 0);
    assert_eq!(session.shutdown(), 2);
}

#[test]
fn one_worker_runs_overlap_up_to_the_fleet_never_past_m() {
    let _turn = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    // Each 6 × 12 product is µ = 6 on one worker, a 60-block footprint
    // that fills the worker's m. Three arrive at once: the ledger places
    // two of them on the two workers, and the third waits for one to end.
    // Placed beside another, it would hold two chunks on one worker and
    // trip that worker's `resident ≤ m` assert, which `shutdown`
    // re-raises. Paced links keep each run open while the others arrive.
    let platform = Platform::homogeneous(2, 4.0, 1.0, 60).unwrap();
    let session = RuntimeSession::new(&platform, 5e-5);
    let jobs: Vec<_> = (0..3u64)
        .map(|j| {
            let (a, b) = (random_matrix(6, 5, 8, 900 + j), random_matrix(5, 12, 8, 910 + j));
            let c0 = random_matrix(6, 12, 8, 920 + j);
            let solo = session.run_holm(&a, &b, c0.clone()).unwrap();
            assert_eq!((solo.workers_used, solo.chunk_side), (1, 6), "the run this test is sized for");
            (a, b, c0, solo.c)
        })
        .collect();
    let start = Barrier::new(jobs.len());
    let capture = Capture::begin();
    std::thread::scope(|scope| {
        for (a, b, c0, solo) in &jobs {
            let (session, start) = (&session, &start);
            scope.spawn(move || {
                start.wait();
                let out = session.run_holm(a, b, c0.clone()).unwrap();
                assert_eq!(out.c.max_abs_diff(solo), 0.0, "concurrent vs solo");
            });
        }
    });
    let trace = capture.end();
    assert_eq!(most_runs_open(&trace), 2, "one run per worker at a time");
    assert_eq!(session.dead_workers(), 0);
    assert_eq!(session.shutdown(), 2);
}

#[test]
fn a_solo_run_on_an_idle_fleet_runs_on_the_first_workers() {
    let _turn = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    // Alone on an idle fleet, a run's P slots are workers 0..P, as
    // Algorithm 1 numbers them: the exact counts and the wire-order
    // digests rest on this. Both runs here enroll fewer than the four
    // workers, so the ledger had a choice.
    let platform = Platform::homogeneous(4, 1.0, 1.0, 60).unwrap();
    let session = RuntimeSession::new(&platform, 0.0);
    for (r, t, s) in [(1, 1, 1), (12, 2, 12)] {
        let (a, b, c0) = (random_matrix(r, t, 4, 70), random_matrix(t, s, 4, 71), random_matrix(r, s, 4, 72));
        let capture = Capture::begin();
        let out = session.run_holm(&a, &b, c0).unwrap();
        let trace = capture.end();
        assert!(out.workers_used < platform.len(), "{r} × {s}: enrolls {} of 4", out.workers_used);
        let peers: BTreeSet<usize> = trace
            .activities
            .iter()
            .filter(|span| span.kind == ActivityKind::Send && span.resource == Resource::MasterPort)
            .map(|span| span.peer.index())
            .collect();
        assert_eq!(peers, (0..out.workers_used).collect(), "{r} × {s}: sends go to workers 0..P");
    }
    assert_eq!(session.shutdown(), 4);
}
