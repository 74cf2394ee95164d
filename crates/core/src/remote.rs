//! The matrix-product worker as a remote process.
//!
//! A remote worker is *exactly* an in-process session worker whose
//! endpoint happens to be a socket: it parks on a blocking receive and
//! serves `RUN_BEGIN`/`RUN_END`-delimited runs with the same Algorithm 2
//! program ([`crate::runtime`]'s block server) and the same persistent
//! scratch state. This module is the thin glue the `mwp-worker` binary
//! calls after [`mwp_msg::transport::enroll_with_retry`] hands it an
//! endpoint and a welcome naming [`mwp_msg::transport::SERVICE_MATRIX`].

use crate::runtime::WorkerState;
use mwp_msg::session::serve_worker;
use mwp_msg::WorkerEndpoint;

/// Serve matrix-product runs on `ep` until the master shuts the session
/// down (or the connection drops). `memory_cap` is the worker's memory
/// capacity `m` in blocks, as announced in the enrollment welcome — the
/// paper's per-worker invariant (`resident blocks < m`) is asserted
/// against it on every frame, remote or not.
///
/// Worker state (recycled scratch blocks, chunk/row maps, prepack
/// buffers, the endpoint's payload buffer pool) persists across runs on
/// one connection, so a remote worker serving back-to-back pooled runs
/// re-allocates nothing — the same steady state the in-process session
/// workers reach.
pub fn serve(ep: WorkerEndpoint, memory_cap: usize) {
    let mut state = WorkerState::new();
    let mut program = move |q: u32, ep: &WorkerEndpoint| {
        crate::runtime::serve_run(ep, q as usize, memory_cap, &mut state)
    };
    serve_worker(ep, &mut program);
}
