//! A held session's steady-state run faults in no fresh pages on the
//! master: the A and B images and the C rows it sends are built in the
//! master endpoint's recycled buffers, which outlive each run. Were they
//! fresh allocations, every run would free operand images above the
//! allocator's trim point back to the OS and fault them in again
//! (200–240 minor faults per run at this shape).
#![cfg(target_os = "linux")]

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::random_matrix;

/// Minor page faults of the calling thread so far: field 10 of
/// `/proc/thread-self/stat`. Per thread, so the worker threads of this
/// test — and the other tests of this binary — do not count.
fn thread_minflt() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
    // Fields from the third on follow the parenthesized command name,
    // which may itself hold spaces or parentheses.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    after_comm.split_whitespace().nth(10 - 3).expect("field 10").parse().expect("a count")
}

#[test]
fn a_warm_session_runs_without_faulting_in_fresh_pages() {
    // 6 × 6 × 6 blocks of q = 40: each operand image is 460 KB, above the
    // allocator's trim point.
    let (a, b) = (random_matrix(6, 6, 40, 1), random_matrix(6, 6, 40, 2));
    let session = RuntimeSession::new(&Platform::homogeneous(2, 1.0, 1.0, 60).unwrap(), 0.0);
    // Each run accumulates into the C the last one returned, so the loop
    // itself allocates nothing.
    let mut c = random_matrix(6, 6, 40, 3);
    for _ in 0..3 {
        // Warm-up: the pool grows to the run's live buffers.
        c = session.run_holm(&a, &b, c).unwrap().c;
    }
    let runs = 10;
    let before = thread_minflt();
    for _ in 0..runs {
        c = session.run_holm(&a, &b, c).unwrap().c;
    }
    let faults = thread_minflt() - before;
    session.shutdown();
    // Usually 0. A run that happens to have one C row more in flight than
    // any before it adds a buffer to the pool: 19 pages for a 77 KB row.
    // The bound admits three such; fresh operand images would cost
    // ≈ 225 pages per run.
    assert!(faults <= 6 * runs, "{faults} minor faults on the master thread in {runs} warm runs");
}
