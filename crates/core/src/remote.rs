//! The matrix-product worker as a remote process.
//!
//! A remote worker is *exactly* an in-process session worker whose
//! endpoint happens to be a socket: it parks on a blocking receive and
//! serves `RUN_BEGIN`/`RUN_END`-delimited runs with the same program
//! ([`crate::runtime`]'s block server, which serves LU factorizations
//! too) and the same persistent scratch state. This module is the thin
//! glue the `mwp-worker` binary calls after
//! [`mwp_msg::transport::enroll_with_retry`] hands it an endpoint and a
//! welcome.

use mwp_blockmat::kernel;
use mwp_msg::session::serve_worker;
use mwp_msg::WorkerEndpoint;

/// Serve matrix-product runs on `ep` until the master shuts the session
/// down (or the connection drops). `memory_cap` is the worker's memory
/// capacity `m` in blocks, as announced in the enrollment welcome — the
/// paper's per-worker invariant (`resident blocks < m`) is asserted
/// against it on every frame, remote or not. The worker computes with the
/// fastest kernel its own machine runs ([`kernel::active`]).
///
/// Worker state (a run state per block side — the chunk, B row and
/// prepack grids — and the endpoint's payload buffer pool) persists
/// across runs on one connection, so a remote worker serving
/// back-to-back pooled runs of one shape re-allocates no chunk storage —
/// the same steady state the in-process session workers reach.
pub fn serve(ep: WorkerEndpoint, memory_cap: usize) {
    serve_worker(ep, &mut crate::runtime::program(memory_cap, kernel::active()));
}
