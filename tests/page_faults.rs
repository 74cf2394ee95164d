//! A held session's steady-state run faults in no fresh pages on the
//! master. Its C rows and task frames are built in the master endpoint's
//! recycled buffers, and its A and B images in a second pool of the
//! endpoint's own: each operand is serialized in groups of steps (1, 1,
//! 2, 4, … steps) as the run reaches them, and each group is a buffer
//! the last run of the session left there. Both pools outlive each run.
//! Were the images fresh allocations, every run would free those above the
//! allocator's trim point back to the OS and fault them in again (200–240
//! minor faults per run at the first shape); were they drawn from the
//! C rows' pool, the groups and rows would trade buffers, grown, from run
//! to run.
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
    // allocator's trim point. 6 × 24 × 6: each operand in six groups, the
    // largest eight steps, 614 KB.
    for (r, t, s) in [(6, 6, 6), (6, 24, 6)] {
        let (a, b) = (random_matrix(r, t, 40, 1), random_matrix(t, s, 40, 2));
        let session = RuntimeSession::new(&Platform::homogeneous(2, 1.0, 1.0, 60).unwrap(), 0.0);
        // Each run accumulates into the C the last one returned, so the
        // loop itself allocates nothing.
        let mut c = random_matrix(r, s, 40, 3);
        for _ in 0..3 {
            // Warm-up: the pools grow to the run's live buffers.
            c = session.run_holm(&a, &b, c).unwrap().c;
        }
        let runs = 10;
        let before = thread_minflt();
        for _ in 0..runs {
            c = session.run_holm(&a, &b, c).unwrap().c;
        }
        let faults = thread_minflt() - before;
        session.shutdown();
        // Usually 0. A run that happens to have one C row more in flight
        // than any before it adds a buffer to the pool: 19 pages for a
        // 77 KB row. The bound admits three such; fresh operand images
        // would cost ≈ 225 pages per run.
        assert!(faults <= 6 * runs, "{r} × {t} × {s}: {faults} minor faults on the master thread in {runs} warm runs");
    }
}
