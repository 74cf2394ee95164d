//! Socket links read frames through a buffer: two warm HoLM runs on a
//! held 2-worker TCP session make fewer than two `read` calls per frame
//! received. The workers are threads of this process, so both ends of
//! every link count. Reading a frame straight off the socket takes at
//! least three calls (the prefix's first byte, the rest of the prefix,
//! the image); through the read half's buffer one call takes in every
//! frame queued on the socket.
//!
//! The counters (`transport::socket_calls`) are process-wide, so this
//! file is a test binary of its own with a single test: nothing else in
//! the process uses a socket while it counts.

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::random_matrix;
use mwp_msg::transport::socket_calls;
use mwp_msg::TransportMode;

#[test]
fn warm_holm_runs_make_fewer_than_two_reads_per_frame() {
    let platform = Platform::homogeneous(2, 4.0, 1.0, 60).unwrap();
    let session = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Tcp);
    let (r, t, s, q) = (12, 12, 12, 20);
    let a = random_matrix(r, t, q, 1);
    let b = random_matrix(t, s, q, 2);
    let c0 = random_matrix(r, s, q, 3);
    // The first run warms the session; the two after it are counted.
    session.run_holm(&a, &b, c0.clone()).unwrap();
    let before = socket_calls();
    for _ in 0..2 {
        session.run_holm(&a, &b, c0.clone()).unwrap();
    }
    let after = socket_calls();
    session.shutdown();

    // Every frame one end sends, the other end, in this process, reads.
    let frames = after.frames_read - before.frames_read;
    let reads = after.reads - before.reads;
    let writes = after.writes - before.writes;
    println!(
        "{frames} frames: {reads} reads ({:.3} per frame), {writes} writes ({:.3} per frame)",
        reads as f64 / frames as f64,
        writes as f64 / frames as f64,
    );
    assert!(frames > 0, "two HoLM runs move frames");
    assert!(reads < 2 * frames, "{reads} reads for {frames} frames");
}
