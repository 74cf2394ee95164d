//! The recorder's zero-cost contract when tracing is off.
//!
//! `MWP_TRACE=off` (or unset) must mean *off*: no span is recorded
//! anywhere, and the hot-path gate `record::enabled()` performs no
//! allocation — it is the only tracing code the instrumented send/recv
//! and compute paths execute in that state, so it is the whole overhead.
//!
//! This file installs a counting global allocator, so it holds exactly
//! one `#[test]` — a second test running concurrently would alloc into
//! the counter. When someone runs the suite with `MWP_TRACE=json:…` set
//! (to record its timelines) the premise is false and the test skips
//! itself; CI sets no `MWP_*` variable, so there it always runs.

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::factor;
use mwp_platform::Platform;
use mwp_trace::record::{self, Capture};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn tracing_off_records_nothing_and_does_not_allocate() {
    match std::env::var("MWP_TRACE").ok().as_deref() {
        None | Some("") | Some("off") => {}
        Some(_) => {
            eprintln!("skipping: MWP_TRACE is set for this process");
            return;
        }
    }

    // Warm the mode cache (first call parses the env var, which may
    // allocate once) before measuring the steady state.
    assert!(!record::enabled(), "no capture and no sink: tracing is off");

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut off = 0usize;
    for _ in 0..10_000 {
        off += usize::from(!record::enabled());
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(off, 10_000, "enabled() flipped on without a capture");
    assert_eq!(
        after - before,
        0,
        "record::enabled() allocated on the tracing-off hot path"
    );

    // A real run with tracing off leaves no trace behind: a capture
    // opened afterwards starts empty (nothing pending leaks forward).
    let pf = Platform::homogeneous(2, 2.0, 1.0, 60).expect("valid platform");
    let a = random_matrix(2, 2, 4, 1);
    let b = random_matrix(2, 3, 4, 2);
    let c0 = random_matrix(2, 3, 4, 3);
    let session = RuntimeSession::new(&pf, 0.0);
    session.run_holm(&a, &b, c0).expect("run succeeds");
    // The panel exchange's span sites are gated the same way.
    assert!(!factor(&session, &random_diagonally_dominant(4, 4, 4), 2).aborted);
    session.shutdown();

    let capture = Capture::begin();
    let leftovers = capture.end();
    assert!(
        leftovers.activities.is_empty(),
        "a tracing-off run leaked {} spans into a later capture",
        leftovers.activities.len()
    );
}
