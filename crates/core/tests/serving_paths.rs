//! Cross-validation of the serving tier (`mwp_core::serving`) against
//! the exclusive one-run-at-a-time path.
//!
//! The serving contract is **bit-identity**: a job run through the
//! [`MatrixServer`] — concurrently with other jobs, or fused into a
//! composite batch — must produce exactly the bytes its solo exclusive
//! run produces. Floating-point addition is not associative, so this
//! only holds because the serving path keeps each job's chunk list and
//! per-chunk `k`-order identical to the solo run; these tests pin that.

use mwp_blockmat::fill::random_matrix;
use mwp_blockmat::gemm::gemm_serial_with;
use mwp_blockmat::kernel::{active, available, Kernel};
use mwp_blockmat::BlockMatrix;
use mwp_core::runtime::RuntimeError;
use mwp_core::serving::{JobSpec, MatrixServer};
use mwp_core::session::RuntimeSession;
use mwp_msg::TransportMode;
use mwp_platform::Platform;

fn platform(p: usize, m: usize) -> Platform {
    Platform::homogeneous(p, 4.0, 1.0, m).unwrap()
}

/// Bitwise equality, stricter than `PartialEq` on f64 (which would
/// accept `0.0 == -0.0`): the serving path must ship back the *bytes*
/// the exclusive path computes.
fn assert_bits_identical(got: &BlockMatrix, want: &BlockMatrix, what: &str) {
    assert_eq!(got.rows(), want.rows(), "{what}: row count");
    assert_eq!(got.cols(), want.cols(), "{what}: col count");
    assert_eq!(got.q(), want.q(), "{what}: block side");
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let g = got.block(i, j).as_slice();
            let w = want.block(i, j).as_slice();
            for (x, y) in g.iter().zip(w) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: block ({i},{j}) differs: {x} vs {y}"
                );
            }
        }
    }
}

/// One job's matrices, seeded so every test run sees the same data.
fn job(r: usize, t: usize, s: usize, q: usize, seed: u64) -> JobSpec {
    JobSpec {
        a: random_matrix(r, t, q, seed),
        b: random_matrix(t, s, q, seed + 1),
        c: random_matrix(r, s, q, seed + 2),
        select: false, // enroll the whole fleet: multi-worker interleaving
    }
}

/// A channel fleet for `pf` whose every worker computes with `kernel`.
fn fleet(pf: &Platform, kernel: &'static Kernel) -> RuntimeSession {
    RuntimeSession::with_kernels(pf, 0.0, TransportMode::Channel, &vec![kernel; pf.len()])
}

/// Serial reference: the same job on a fresh exclusive session of
/// `kernel` workers — itself pinned to the single-threaded product through
/// `kernel`, because the solo run shares its master loop with the serving
/// tier it is the reference for.
fn solo(pf: &Platform, kernel: &'static Kernel, spec: &JobSpec) -> BlockMatrix {
    let session = fleet(pf, kernel);
    let out = if spec.select {
        session.run_holm(&spec.a, &spec.b, spec.c.clone()).unwrap()
    } else {
        session.run_all_workers(&spec.a, &spec.b, spec.c.clone()).unwrap()
    };
    session.shutdown();
    let mut serial = spec.c.clone();
    gemm_serial_with(kernel, &mut serial, &spec.a, &spec.b);
    assert_bits_identical(&out.c, &serial, "solo run vs gemm_serial_with");
    out.c
}

#[test]
fn concurrent_jobs_bit_identical_to_serial() {
    // 4 dispatcher threads over 4 workers: up to 4 job generations
    // interleave on the same links. Batching off — this test isolates
    // the concurrency axis. Once per kernel this CPU runs.
    let pf = platform(4, 60);
    let specs: Vec<JobSpec> =
        (0..6).map(|j| job(5, 4, 6, 8, 100 + 10 * j)).collect();
    for kernel in available() {
        let server = MatrixServer::with_options(fleet(&pf, kernel), 4, false);
        let done: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let spec = spec.clone();
                    let server = &server;
                    scope.spawn(move || server.run(spec))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (spec, completed) in specs.iter().zip(&done) {
            let got = completed.result.as_ref().unwrap();
            assert_bits_identical(&got.c, &solo(&pf, kernel, spec), kernel.name());
            assert!(completed.report.run_gen > 0, "job runs get real generations");
            assert!(got.blocks_moved > 0);
        }
        // Batching was off, so every job must have run alone.
        assert!(done.iter().all(|c| c.report.batched_with == 0));
        assert_eq!(server.dead_workers(), 0);
        server.shutdown();
    }
}

#[test]
fn interleaved_generations_bit_identical_to_serial() {
    // A platform where the small-matrix (ν, Q) selection gives each job
    // a footprint of ν²+4ν = 32 blocks against m = 132, so admission
    // lets 4 generations in flight at once over the *same* 5 enrolled
    // workers — frames of distinct jobs genuinely interleave per link.
    let pf = Platform::homogeneous(6, 2.0, 4.5, 132).unwrap();
    let server =
        MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 4, false);

    let specs: Vec<JobSpec> = (0..8)
        .map(|j| JobSpec { select: true, ..job(9, 5, 9, 4, 2000 + 10 * j) })
        .collect();
    let handles: Vec<_> = specs.iter().map(|s| server.submit(s.clone())).collect();
    let done: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();

    let mut gens = Vec::new();
    for (spec, completed) in specs.iter().zip(&done) {
        let got = completed.result.as_ref().unwrap();
        assert_bits_identical(&got.c, &solo(&pf, active(), spec), "interleaved job");
        assert_eq!(got.workers_used, 5, "small-matrix regime enrolls Q = 5");
        assert_eq!(got.chunk_side, 4, "small-matrix regime picks ν = 4");
        gens.push(completed.report.run_gen);
    }
    // Every job ran as its own generation — none shared (batching off).
    gens.sort_unstable();
    gens.dedup();
    assert_eq!(gens.len(), done.len(), "each unbatched job gets its own generation");
    assert_eq!(server.dead_workers(), 0);
    server.shutdown();
}

#[test]
fn batched_small_q_jobs_bit_identical_to_solo() {
    let pf = platform(3, 60);
    // One dispatcher: a long lead job plugs it while the small jobs
    // pile up behind, so the dispatcher's next pop fuses them.
    let server =
        MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 1, true);

    let plug = job(12, 10, 12, 8, 500);
    let smalls: Vec<JobSpec> = (0..4).map(|j| job(4, 3, 5, 4, 600 + 10 * j)).collect();

    let plug_handle = server.submit(plug.clone());
    let small_handles: Vec<_> =
        smalls.iter().map(|spec| server.submit(spec.clone())).collect();

    let plug_done = plug_handle.wait();
    assert_bits_identical(
        &plug_done.result.as_ref().unwrap().c,
        &solo(&pf, active(), &plug),
        "plug job",
    );

    let done: Vec<_> = small_handles.into_iter().map(|h| h.wait()).collect();
    for (spec, completed) in smalls.iter().zip(&done) {
        let got = completed.result.as_ref().unwrap();
        assert_bits_identical(&got.c, &solo(&pf, active(), spec), "batched job");
    }
    // The queued compatible jobs fused: same generation, mutual
    // batched_with counts. (All four piled up behind the plug, so they
    // dispatch as one composite run.)
    let fused = done.iter().filter(|c| c.report.batched_with > 0).count();
    assert!(fused >= 2, "queued small-q jobs must fuse ({fused} batched)");
    let gens: Vec<u32> = done.iter().map(|c| c.report.run_gen).collect();
    for pair in done.iter().zip(&gens).collect::<Vec<_>>().windows(2) {
        if pair[0].0.report.batched_with > 0 && pair[1].0.report.batched_with > 0 {
            assert_eq!(pair[0].1, pair[1].1, "fused jobs share one generation");
        }
    }
    server.shutdown();
}

#[test]
fn incompatible_shapes_never_share_a_generation() {
    let pf = platform(3, 60);
    let server =
        MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 1, true);

    let plug = job(10, 8, 10, 8, 700);
    let shape_a: Vec<JobSpec> = (0..2).map(|j| job(4, 3, 5, 4, 800 + 10 * j)).collect();
    let shape_b: Vec<JobSpec> = (0..2).map(|j| job(3, 2, 4, 4, 900 + 10 * j)).collect();

    let ph = server.submit(plug.clone());
    let ha: Vec<_> = shape_a.iter().map(|s| server.submit(s.clone())).collect();
    let hb: Vec<_> = shape_b.iter().map(|s| server.submit(s.clone())).collect();
    ph.wait().result.unwrap();
    let da: Vec<_> = ha.into_iter().map(|h| h.wait()).collect();
    let db: Vec<_> = hb.into_iter().map(|h| h.wait()).collect();

    for (spec, completed) in shape_a.iter().zip(&da).chain(shape_b.iter().zip(&db)) {
        let got = completed.result.as_ref().unwrap();
        assert_bits_identical(&got.c, &solo(&pf, active(), spec), "mixed-shape job");
    }
    // A job of one shape may never ride a composite run of the other.
    for a in &da {
        for b in &db {
            assert_ne!(
                a.report.run_gen, b.report.run_gen,
                "different shapes must not share a run generation"
            );
        }
    }
    server.shutdown();
}

#[test]
fn per_job_metering_matches_volume_formula() {
    // A solo job's blocks_moved must equal the exclusive path's formula:
    // 2·(C blocks out + back) + per chunk, per k: µ-row of B + µ-col of A.
    let pf = platform(2, 60); // µ = 6
    let server =
        MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 1, false);
    let (r, t, s, q) = (6usize, 5usize, 12usize, 4usize);
    let spec = job(r, t, s, q, 1000);
    let completed = server.run(spec);
    let out = completed.result.unwrap();

    let mu = out.chunk_side as u64;
    let n_chunks = (r as u64).div_ceil(mu) * (s as u64).div_ceil(mu);
    let expected = 2 * (r as u64 * s as u64) + n_chunks * (t as u64) * 2 * mu;
    assert_eq!(out.blocks_moved, expected, "per-job meter vs volume formula");
    assert_eq!(completed.report.blocks_moved, expected, "report carries the meter");
    assert_eq!(completed.report.batched_with, 0);
    assert!(completed.report.run_gen > 0);
    assert!(completed.report.service > std::time::Duration::ZERO, "service time is measured");
    server.shutdown();
}

#[test]
fn batched_jobs_meter_like_solo_jobs() {
    // Fusing must not change a job's attributed traffic: each fused job
    // moves exactly what its solo run moves.
    let pf = platform(2, 60);
    let server =
        MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 1, true);
    let plug = job(10, 8, 10, 8, 1100);
    let smalls: Vec<JobSpec> = (0..3).map(|j| job(4, 3, 4, 4, 1200 + 10 * j)).collect();

    let solo_meter = {
        let lone = MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 1, false);
        let m = lone.run(smalls[0].clone()).result.unwrap().blocks_moved;
        lone.shutdown();
        m
    };

    let ph = server.submit(plug);
    let hs: Vec<_> = smalls.iter().map(|s| server.submit(s.clone())).collect();
    ph.wait().result.unwrap();
    for h in hs {
        let completed = h.wait();
        assert_eq!(
            completed.report.blocks_moved, solo_meter,
            "a fused job's meter equals its solo meter"
        );
    }
    server.shutdown();
}

#[test]
fn invalid_job_fails_without_poisoning_the_server() {
    let pf = platform(2, 60);
    let server =
        MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 2, true);
    let bad = JobSpec {
        a: random_matrix(2, 3, 4, 1),
        b: random_matrix(2, 2, 4, 2), // wrong inner dimension
        c: random_matrix(2, 2, 4, 3),
        select: false,
    };
    assert!(server.run(bad).result.is_err(), "malformed job must fail as a value");

    // The fleet is untouched: the next job serves normally.
    let good = job(4, 3, 5, 4, 1300);
    let completed = server.run(good.clone());
    assert_bits_identical(
        &completed.result.unwrap().c,
        &solo(&pf, active(), &good),
        "job after a rejected one",
    );
    assert_eq!(server.dead_workers(), 0);
    server.shutdown();
}

#[test]
fn too_small_fleet_fails_selection_jobs_as_values() {
    // m = 4 holds no µ ≥ 1, so no job can run on this fleet; what the
    // server owes its clients is the documented error from a dispatcher
    // (one, so every job meets the same thread) that outlives it.
    let pf = platform(2, 4);
    let server = MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 1, true);
    for select in [true, false, true] {
        let spec = JobSpec { select, ..job(2, 2, 2, 4, 1350) };
        let err = server.run(spec).result.err();
        assert_eq!(err, Some(RuntimeError::MemoryTooSmall { m: 4 }), "select={select}");
    }
    assert_eq!(server.dead_workers(), 0);
    server.shutdown();
}

#[test]
fn a_lone_workers_job_ships_as_one_chunk() {
    // The serving mix's large job: on its c = w = 1, m = 60 fleet (µ = 6)
    // HoLM enrolls one worker, which holds the 4 × 4 grid as one chunk —
    // 32 C blocks both ways plus 4 + 4 A and B blocks per k = 64, where
    // §5's four 2 × 2 chunks would move 96.
    let pf = Platform::homogeneous(2, 1.0, 1.0, 60).unwrap();
    let server = MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 2, true);
    let spec = JobSpec { select: true, ..job(4, 4, 4, 40, 1600) };
    let got = server.run(spec.clone()).result.unwrap();
    assert_bits_identical(&got.c, &solo(&pf, active(), &spec), "one-chunk job");
    assert_eq!((got.workers_used, got.chunk_side, got.blocks_moved), (1, 4, 64));
    server.shutdown();
}

#[test]
fn holm_selection_jobs_also_serve_bit_identically() {
    // The select=true (HoLM resource selection) flavor through the
    // server, including two jobs of different shapes back to back.
    let pf = platform(4, 60);
    let server =
        MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 2, false);
    for (shape, seed) in [((5, 7, 9, 8), 1400u64), ((6, 4, 8, 4), 1500)] {
        let (r, t, s, q) = shape;
        let spec = JobSpec { select: true, ..job(r, t, s, q, seed) };
        let completed = server.run(spec.clone());
        assert_bits_identical(
            &completed.result.unwrap().c,
            &solo(&pf, active(), &spec),
            "select=true job",
        );
    }
    server.shutdown();
}
