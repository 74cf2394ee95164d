//! Threaded LU execution with real arithmetic over the message layer.
//!
//! The master (the calling thread) walks [`crate::schedule::lu_schedule`]
//! — the right-looking factorization of Section 7.2 as plain data — over
//! [`mwp_msg`] through the product runtime's one master executor
//! ([`mwp_core::runtime::execute`]): one worker factoring pivots and
//! solving panels, every enrolled worker updating core row groups in
//! parallel, all with real `f64` arithmetic, verified against the serial
//! blocked factorization. [`crate::homogeneous`] simulates the same ops.
//!
//! # Message pattern
//!
//! The message layer moves self-describing dense sub-matrices (a tiny
//! `rows × cols` header before the coefficients), several to a frame, one
//! per region of the op ([`crate::schedule`] gives a step's ops and their
//! order):
//!
//! 1. **`OP_PANEL`, one exchange on the pivot worker**: the pivot block,
//!    the vertical panel below it and the horizontal panel right of it go
//!    out in one frame; the factored pivot and the two solved panels come
//!    back in one reply — Section 7.2's aggregate message to the one
//!    worker that owns the pivot chain, so the pivot crosses the port once
//!    per step. The last step has no panels and ships the pivot alone.
//! 2. **`OP_SET_HORIZ`**: the solved horizontal panel — the B operand of
//!    every core update — is encoded once and fanned out to the workers
//!    that get a group as refcounted views of one buffer; each worker
//!    **packs it once** for the dispatched kernel and keeps the pack
//!    resident for the step.
//! 3. **`OP_CORE`** per row group of the core, round-robin over the
//!    enrolled workers: its rows of the vertical panel and of the core out
//!    (all groups first, so they compute in parallel), the updated rows
//!    back.
//!
//! The master never copies a panel out of its matrix or a reply into
//! one: tasks are encoded straight from regions of the matrix and
//! replies are stored straight over them. A task payload is an exact-size
//! buffer freed once sent (a recycled one would grow to the largest
//! message — the fused panel — and stay that size); workers build their
//! replies in their endpoint's recycled pool. Every frame is metered (and
//! a paced link charged) at its true size in blocks, coefficients over
//! `q²`.
//!
//! # Recovery
//!
//! Every input of every op comes from master state, which only a
//! *validated* reply mutates: a reply must decode (bounded, exact part
//! count) and each part must have the shape the master sent. A worker
//! that dies, stays silent past the liveness deadline, or answers with
//! anything else is condemned, and recovery is the executor's one rule:
//! the ops it left undone are re-dispatched at the step's next barrier —
//! every live link drained first — on the lowest live worker
//! ([`crate::schedule::redispatch`]), a panel exchange and a lost core
//! group alike, and the replayed task is the identical bytes — recovered
//! runs are bit-identical to healthy ones. Losing the **whole** fleet
//! aborts the run ([`LuRunOutcome::aborted`]); the session serves again
//! once workers are admitted.
//!
//! Worker threads live in a persistent [`LuSession`]: spawned once per
//! platform, parked on blocking receives between runs. [`run_lu`] is
//! one-shot (a fresh session per call); repeated-factorization workloads
//! hold an [`LuSession`] and call [`LuSession::run`].

use crate::schedule::{lu_schedule, redispatch, LuOp, LuOpKind, Region};
use mwp_blockmat::kernel::PackedB;
use mwp_blockmat::lu::{lu_factor_in_place, trsm_left_unit_lower, trsm_right_upper, Dense};
use mwp_blockmat::BlockMatrix;
use mwp_core::runtime::{execute, Port};
use mwp_msg::config::Config;
use mwp_msg::session::{serve_worker, RunExit, Session, RUN_ABORT, RUN_END};
use mwp_msg::transport::SERVICE_LU;
use mwp_msg::{Frame, FrameKind, Tag, TransportListener, TransportMode, WorkerEndpoint};
use mwp_platform::{Platform, WorkerId};
use mwp_trace::{record, ActivityKind};
use std::ops::Range;
use std::time::Instant;

/// Operation codes carried in the frame tag's `i` field.
///
/// The step's whole pivot chain in one exchange: `[pivot]` or `[pivot,
/// vertical, horizontal]` out, the factored pivot and the solved panels
/// back in the same order.
const OP_PANEL: usize = 0;
/// Install the step's horizontal panel in the worker's resident state.
/// The panel is encoded **once** per step and fanned out to every
/// enrolled worker as refcounted views of the same buffer, instead of
/// being re-encoded into every core-update message — and the worker
/// packs it once per step for the kernel, instead of once per core task.
const OP_SET_HORIZ: usize = 1;
/// One row group of the core: `[vertical rows, core rows]` out, the
/// updated core rows back.
const OP_CORE: usize = 2;

/// Outcome of a threaded LU run.
#[derive(Debug)]
pub struct LuRunOutcome {
    /// Packed factors (L below the unit diagonal, U on and above it).
    pub packed: Dense,
    /// Wall-clock duration.
    pub wall: std::time::Duration,
    /// Frames moved through the master port (both ways), each carrying
    /// one to three dense sub-matrices.
    pub messages: u64,
    /// Matrix blocks moved through the master port (both ways): every
    /// frame's coefficients over `q²`.
    pub blocks_moved: u64,
    /// Workers enrolled.
    pub workers_used: usize,
    /// `true` when the whole-run deadline ([`LuSession::set_run_deadline`]) elapsed
    /// or every enrolled worker was lost, and the master broadcast
    /// `RUN_ABORT` instead of finishing: `packed` then holds a **partial**
    /// factorization and must be discarded. The session itself stays
    /// serving — the next run starts clean (after a whole-fleet loss, once
    /// [`LuSession::prune_dead`] and [`LuSession::admit`] gave it workers).
    pub aborted: bool,
}

/// A persistent worker pool serving threaded LU factorizations.
///
/// Workers are spawned once and parked between runs; each run of
/// [`LuSession::run`] wakes them with a `RUN_BEGIN` frame and parks them
/// again with `RUN_END`, so a repeated-factorization workload (benches,
/// panel-width sweeps) pays thread spawn/join once and keeps every
/// worker's payload buffer pool warm across runs.
pub struct LuSession {
    inner: Session,
    /// Held by [`LuSession::run`] for its whole run: the LU worker program
    /// serves one run at a time (an interleaved `RUN_BEGIN` would be
    /// misread by an in-run worker), so concurrent callers take turns.
    run_lock: std::sync::Mutex<()>,
}

impl LuSession {
    /// Spawn the pool for `platform`. `time_scale` paces the links
    /// (0 = off), exactly as in [`run_lu`]. The frames travel over
    /// in-process channels.
    pub fn new(platform: &Platform, time_scale: f64) -> Self {
        Self::with_transport(platform, time_scale, TransportMode::Channel)
    }

    /// [`LuSession::new`] with an explicit transport (loopback sockets) —
    /// how tests cross-validate the channel and socket backends
    /// bit-for-bit inside one process.
    pub fn with_transport(platform: &Platform, time_scale: f64, mode: TransportMode) -> Self {
        let inner = Session::spawn_with_transport(platform, time_scale, mode, |_, _| {
            // The horizontal-panel pack buffer lives in the worker
            // closure, outside the per-run loop, so a pooled session
            // keeps its high-water capacity warm across runs.
            let mut horiz_pack = PackedB::new();
            move |_q: u32, ep: &WorkerEndpoint| serve_lu_run(ep, &mut horiz_pack)
        });
        Self::over(inner)
    }

    /// Wrap a spawned/accepted fleet.
    fn over(inner: Session) -> Self {
        LuSession { inner, run_lock: std::sync::Mutex::new(()) }
    }

    /// A session whose workers are **remote processes**: accepts one
    /// enrollment per platform worker from `listener`, announcing the LU
    /// service id so each `mwp-worker` runs the LU op server, under the
    /// deployment's `config` (see [`Session::accept_remote`]). Driven
    /// exactly like a local session; results are bit-identical.
    pub fn accept_remote(
        platform: &Platform,
        time_scale: f64,
        listener: &TransportListener,
        config: &Config,
    ) -> std::io::Result<Self> {
        Session::accept_remote(platform, time_scale, listener, SERVICE_LU, config).map(Self::over)
    }

    /// The current fleet as a platform description — `None` after every
    /// worker was pruned ([`LuSession::run`] on an empty fleet returns an
    /// aborted outcome; admit a worker first).
    pub fn platform(&self) -> Option<&Platform> {
        self.inner.platform()
    }

    /// Number of pooled workers.
    pub fn workers(&self) -> usize {
        self.inner.workers()
    }

    /// Factor `matrix` on the pooled workers (see [`run_lu`]):
    /// [`lu_schedule`] in `mu`-block panels for the whole fleet,
    /// [`execute`]d as one run. Concurrent callers serialize: a session
    /// factors one matrix at a time.
    pub fn run(&self, matrix: &BlockMatrix, mu: usize) -> LuRunOutcome {
        validate_lu(matrix, mu);
        // The lock guards no data, so a poisoned one is still usable.
        let _exclusive =
            self.run_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (enrolled, q) = (self.workers(), matrix.q());
        let start = Instant::now();
        let ops = lu_schedule(matrix.rows(), mu, enrolled);
        let (port, completed) = execute(&self.inner, enrolled, q, ops, |master, gen| {
            let (a, horiz) = (Dense::from_blocks(matrix), Default::default());
            LuPort { master, gen, q, mu, a, horiz, messages: 0, blocks_moved: 0 }
        });
        LuRunOutcome {
            packed: port.a,
            wall: start.elapsed(),
            messages: port.messages,
            blocks_moved: port.blocks_moved,
            workers_used: enrolled,
            aborted: completed.is_err(),
        }
    }

    /// Accept and enroll one more remote worker from `listener` between
    /// runs, growing the fleet and the platform by one slot (see
    /// [`Session::admit`]).
    pub fn admit(
        &mut self,
        listener: &TransportListener,
        params: mwp_platform::WorkerParams,
    ) -> std::io::Result<mwp_platform::WorkerId> {
        self.inner.admit(listener, params, SERVICE_LU)
    }

    /// Drop every worker declared dead, compacting the fleet and the
    /// platform in lockstep (see [`Session::prune_dead`]; every run enrolls
    /// the fleet it finds). Returns how many were removed. Pruning the whole
    /// fleet leaves the session empty; [`LuSession::run`] aborts until
    /// an [`LuSession::admit`] repopulates it.
    pub fn prune_dead(&mut self) -> usize {
        self.inner.prune_dead().len()
    }

    /// Set or lift (`None`) the whole-run budget of the runs that follow
    /// (see [`Session::set_run_deadline`]): a run that outlasts it comes
    /// back [`LuRunOutcome::aborted`] and leaves the session serving.
    pub fn set_run_deadline(&mut self, budget: Option<std::time::Duration>) {
        self.inner.set_run_deadline(budget);
    }

    /// How many enrolled workers are currently flagged dead.
    pub fn dead_workers(&self) -> usize {
        self.inner.dead_workers()
    }

    /// Orderly shutdown: joins every pooled worker thread and returns how
    /// many were joined. Dropping the session does the same, silently.
    pub fn shutdown(self) -> usize {
        self.inner.shutdown()
    }
}

/// Factor `matrix` (square, block side `q`) in parallel with panel width
/// `mu_blocks` blocks, over `platform` (first worker also handles pivot
/// and panel phases). `time_scale` paces the links (0 = off).
///
/// One-shot wrapper over [`LuSession::run`]: spawns a session, runs once,
/// shuts it down.
pub fn run_lu(
    platform: &Platform,
    matrix: &BlockMatrix,
    mu_blocks: usize,
    time_scale: f64,
) -> LuRunOutcome {
    // Pre-flight: a bad call must panic here, before any worker pool is
    // spawned on its behalf.
    validate_lu(matrix, mu_blocks);
    let session = LuSession::new(platform, time_scale);
    let out = session.run(matrix, mu_blocks);
    session.shutdown();
    out
}

/// Panics on malformed inputs. Pure, so the one-shot wrapper can reject
/// bad calls before spawning a session.
fn validate_lu(matrix: &BlockMatrix, mu_blocks: usize) {
    let (n, m) = matrix.dims();
    assert_eq!(n, m, "LU needs a square matrix");
    assert!(mu_blocks * matrix.q() > 0, "panel width must be positive");
}

/// The master's side of one open LU run: the matrix being factored in
/// place, every task frame stamped with the run's generation and every
/// result received scoped to it.
struct LuPort<'a> {
    master: &'a mwp_msg::MasterEndpoint,
    gen: u32,
    q: usize,
    /// Panel width in blocks.
    mu: usize,
    /// The matrix: tasks are encoded from it, validated replies stored
    /// over it. After an aborted run, a partial factorization.
    a: Dense,
    /// The `OP_SET_HORIZ` task being fanned out: its op's regions and
    /// their encoding. Empty once any other task is sent.
    horiz: (Vec<Region>, bytes::Bytes),
    /// Frames that crossed the port, either way.
    messages: u64,
    /// Blocks those frames carried.
    blocks_moved: u64,
}

impl Port for LuPort<'_> {
    type Op = LuOp;

    fn worker(op: &LuOp) -> WorkerId {
        op.worker
    }

    /// A `Panel` reads what the whole step before it stored, and the
    /// whole step after it reads what it stores: a barrier on both sides.
    fn same_phase(op: &LuOp, next: &LuOp) -> bool {
        op.kind != LuOpKind::Panel && next.kind != LuOpKind::Panel
    }

    fn perform(&mut self, op: &LuOp) -> bool {
        match op.kind {
            LuOpKind::Panel => self.send(op, OP_PANEL) && self.recv(op),
            LuOpKind::SetHoriz => self.send(op, OP_SET_HORIZ),
            LuOpKind::Core => self.send(op, OP_CORE),
            LuOpKind::Collect => self.recv(op),
        }
    }

    fn redispatch(&self, undone: Vec<LuOp>, live: &[WorkerId]) -> Option<Vec<LuOp>> {
        live.first().map(|&lowest| redispatch(&undone, lowest, self.mu))
    }
}

impl LuPort<'_> {
    /// `op`'s block regions as regions of `a`.
    fn regions(&self, op: &LuOp) -> Vec<Region> {
        let scale = |blocks: &Range<usize>| blocks.start * self.q..blocks.end * self.q;
        op.regions.iter().map(|(rows, cols)| (scale(rows), scale(cols))).collect()
    }

    /// Failure-aware task send of `op`'s regions of `a`: `false` (with the
    /// worker condemned) when its link is dead. Consecutive installs of
    /// one panel — a step's fan-out, with no reply stored in between — are
    /// refcounted views of one encoding; any other task's buffer is its
    /// frame's alone, freed once sent.
    fn send(&mut self, op: &LuOp, code: usize) -> bool {
        if self.horiz.0 != op.regions {
            self.horiz = (op.regions.clone(), encode_regions(&self.a, &self.regions(op)));
        }
        let payload =
            if code == OP_SET_HORIZ { self.horiz.1.clone() } else { std::mem::take(&mut self.horiz).1 };
        let frame = Frame::new_in_run(Tag::new(FrameKind::LuPanel, code, 0), self.gen, payload);
        let sent = self.master.try_send(op.worker, frame, op.blocks()).is_some();
        if sent {
            self.meter(op);
        }
        sent
    }

    /// Failure-aware result receive: store the worker's reply over `op`'s
    /// regions of `a` — what the master sent, so what an honest worker
    /// returns. `false`, with `a` untouched, when it dies, stays silent
    /// past the liveness deadline, or answers with anything but exactly
    /// those shapes.
    fn recv(&mut self, op: &LuOp) -> bool {
        let regions = self.regions(op);
        let reply = self.master.recv_deadline(op.worker, self.gen, op.blocks());
        reply.is_some_and(|(frame, _)| {
            self.meter(op);
            store_regions(&mut self.a, &regions, &frame.payload)
        })
    }

    /// Count a frame of `op` that crossed the port.
    fn meter(&mut self, op: &LuOp) {
        self.messages += 1;
        self.blocks_moved += op.blocks();
    }
}

/// Worker loop for **one run** of a session: decode the op, run the
/// kernel, return the result matrices. Parks back into the session's
/// outer loop on `RUN_END`.
///
/// The worker **packs the step's horizontal panel once per rank-µ step**
/// (on `OP_SET_HORIZ`) into the session-lifetime `horiz_pack` buffer, so
/// every core row-group update of the step reuses one pack instead of
/// repacking per task. Core-update messages carry only their own rows of
/// the vertical panel and core; the pack buffer's capacity stays warm
/// across a session's runs. Result payloads
/// are built in the endpoint's recycled buffer pool — which lives in the
/// endpoint and therefore stays warm **across** runs — so the worker
/// allocates nothing per message at steady state beyond the decoded task
/// matrices themselves.
fn serve_lu_run(ep: &WorkerEndpoint, horiz_pack: &mut PackedB) -> RunExit {
    // Resolve the block-update kernel once per run from the cached
    // dispatch table; every OP_CORE rank-µ update below reuses it.
    let kernel = mwp_blockmat::kernel::active();
    // Whether this run has installed a panel yet: `horiz_pack` outlives
    // the run, so a stale pack must never serve an OP_CORE.
    let mut horiz_installed = false;
    loop {
        let frame = match ep.recv() {
            Ok(f) => f,
            Err(_) => return RunExit::Terminate,
        };
        match frame.tag.kind {
            FrameKind::Shutdown => return RunExit::Terminate,
            // Orderly end, or cooperative abort (the master gave up on this
            // run): either way the pack buffer's capacity stays warm for
            // the next run.
            FrameKind::Control if matches!(frame.tag.i, RUN_END | RUN_ABORT) => {
                return RunExit::Completed
            }
            FrameKind::LuPanel => {}
            // Anything else — a `RUN_BEGIN` included: the master aborted a
            // run without closing it and reused the session — would be
            // factored against stale state: drop the link instead.
            _ => return RunExit::Terminate,
        }
        // One Compute span per LU op served (the worker's occupancy unit,
        // matching the sim's per-task granularity), subdivided on the
        // detail track: `factor` / `trsm` / `core` kernel spans and the
        // once-per-step panel pack.
        let tc = record::begin();
        // The task arrived over a link, so nothing about it is trusted to
        // be what the master program sends: a payload that does not
        // decode, an unknown op, an op with the wrong part count or a core
        // update before any panel install drops the link — the master
        // sees a dead worker — instead of unwinding this thread.
        let Some(mut parts) = decode_parts(&frame.payload) else { return RunExit::Terminate };
        let (op, run) = (frame.tag.i as usize, frame.run);
        let tk = record::begin();
        match (op, &mut parts[..]) {
            (OP_PANEL, [pivot, panels @ ..]) => {
                lu_factor_in_place(pivot);
                record::worker_span(ep.id(), ActivityKind::Kernel, tk, run, "factor");
                if let [vert, horiz] = panels {
                    let tk = record::begin();
                    trsm_right_upper(vert, pivot);
                    trsm_left_unit_lower(horiz, pivot);
                    record::worker_span(ep.id(), ActivityKind::Kernel, tk, run, "trsm");
                }
            }
            (OP_SET_HORIZ, [panel]) => {
                // One pack per rank-µ step, consumed by every core row
                // group of the step (the pack snapshot stays valid until
                // the next step's install overwrites the panel).
                panel.pack_sub_mul_for(kernel, horiz_pack);
                record::worker_span(ep.id(), ActivityKind::Pack, tk, run, "pack panel");
                horiz_installed = true;
                continue; // stateful install: nothing to send back
            }
            (OP_CORE, [vert_g, core_g]) if horiz_installed => {
                core_g.sub_mul_prepacked(kernel, vert_g, horiz_pack);
                record::worker_span(ep.id(), ActivityKind::Kernel, tk, run, "core");
                parts.remove(0);
            }
            _ => return RunExit::Terminate,
        }
        record::worker_span(ep.id(), ActivityKind::Compute, tc, run, "LU op");
        let whole: Vec<Region> = parts.iter().map(|d| (0..d.rows(), 0..d.cols())).collect();
        let payload = ep.pooled_payload(wire_len(&whole), |buf| {
            parts.iter().zip(&whole).for_each(|(d, r)| encode_region(d, r, buf));
        });
        ep.send(Frame::new(Tag::new(FrameKind::LuPanel, op, frame.tag.j as usize), payload));
    }
}

/// Serve LU runs on `ep` until the master shuts the session down: the
/// remote-process counterpart of a pooled [`LuSession`] worker, called by
/// the `mwp-worker` binary when its enrollment welcome names
/// [`SERVICE_LU`]. The horizontal-panel pack buffer persists across runs
/// on the connection, exactly as it does in an in-process session.
pub fn serve_remote(ep: WorkerEndpoint) {
    let mut horiz_pack = PackedB::new();
    let mut program = move |_q: u32, ep: &WorkerEndpoint| serve_lu_run(ep, &mut horiz_pack);
    serve_worker(ep, &mut program);
}

/// Total encoded size of parts shaped like `regions`.
fn wire_len(regions: &[Region]) -> usize {
    regions.iter().map(|(rows, cols)| 8 + rows.len() * cols.len() * 8).sum()
}

/// `regions` of `a` as one task payload, in an exact-size buffer.
fn encode_regions(a: &Dense, regions: &[Region]) -> bytes::Bytes {
    let mut buf = Vec::with_capacity(wire_len(regions));
    regions.iter().for_each(|r| encode_region(a, r, &mut buf));
    buf.into()
}

/// The header of the part holding `region`: `rows u32 | cols u32`.
fn header((rows, cols): &Region) -> [u8; 8] {
    let mut h = [0; 8];
    h[..4].copy_from_slice(&(rows.len() as u32).to_le_bytes());
    h[4..].copy_from_slice(&(cols.len() as u32).to_le_bytes());
    h
}

/// Append one part to `out` — `rows u32 | cols u32 | rows·cols f64 LE` —
/// holding `region` of `src`, read in place. On little-endian targets
/// each row's coefficient image is one bulk copy.
fn encode_region(src: &Dense, region: &Region, out: &mut Vec<u8>) {
    out.extend_from_slice(&header(region));
    let (rows, cols) = region;
    for i in rows.clone() {
        let coeffs = &src.as_slice()[i * src.cols()..][cols.clone()];
        #[cfg(target_endian = "little")]
        {
            // f64 has no padding and any byte pattern is a valid read.
            let raw = unsafe {
                std::slice::from_raw_parts(coeffs.as_ptr().cast::<u8>(), coeffs.len() * 8)
            };
            out.extend_from_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        for v in coeffs {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// The coefficient image `bytes` (f64 LE) into `dst`.
fn copy_coefficients(dst: &mut [f64], bytes: &[u8]) {
    for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(8)) {
        *d = f64::from_le_bytes(c.try_into().expect("8 bytes"));
    }
}

/// Store a worker's reply over `regions` of `a`, provided it is exactly
/// the encoding of parts of those shapes — the length the master
/// computes from its own numbers, then each header. Nothing the worker
/// wrote is used to size, slice or index anything, and `a` is untouched
/// unless the whole reply validates.
fn store_regions(a: &mut Dense, regions: &[Region], payload: &[u8]) -> bool {
    if payload.len() != wire_len(regions) {
        return false;
    }
    // `payload` is as long as one part per region: cut it at the
    // master's own offsets and check each header before storing any body.
    let mut bodies = Vec::with_capacity(regions.len());
    let mut rest = payload;
    for region in regions {
        let (part, tail) = rest.split_at(wire_len(std::slice::from_ref(region)));
        if part[..8] != header(region) {
            return false;
        }
        bodies.push(&part[8..]);
        rest = tail;
    }
    let n = a.cols();
    for ((rows, cols), body) in regions.iter().zip(bodies) {
        let row_bytes = cols.len() * 8;
        for (k, i) in rows.clone().enumerate() {
            let dst = &mut a.as_mut_slice()[i * n..][cols.clone()];
            copy_coefficients(dst, &body[k * row_bytes..][..row_bytes]);
        }
    }
    true
}

/// Decode a task into owned matrices (the worker's side of
/// [`encode_region`]). `None` unless `buf` is exactly a sequence of whole
/// parts: a header's `rows × cols` is only trusted once that many
/// coefficients are known to follow it, so no header can overflow the
/// size arithmetic or size an allocation beyond the frame it arrived in.
fn decode_parts(buf: &[u8]) -> Option<Vec<Dense>> {
    let mut parts = Vec::new();
    let mut rest = buf;
    while !rest.is_empty() {
        let (header, body) = rest.split_at_checked(8)?;
        let rows = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let cols = u32::from_le_bytes(header[4..].try_into().expect("4 bytes")) as usize;
        let (bytes, tail) = body.split_at_checked(rows.checked_mul(cols)?.checked_mul(8)?)?;
        let mut d = Dense::zeros(rows, cols);
        copy_coefficients(d.as_mut_slice(), bytes);
        parts.push(d);
        rest = tail;
    }
    Some(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwp_blockmat::fill::random_diagonally_dominant;
    use mwp_blockmat::lu::{lu_blocked_in_place, scaled_residual};

    fn platform(p: usize) -> Platform {
        Platform::homogeneous(p, 1.0, 1.0, 1000).unwrap()
    }

    /// The wire image of whole matrices.
    fn encode_parts(parts: &[&Dense]) -> Vec<u8> {
        let mut out = Vec::new();
        for d in parts {
            encode_region(d, &(0..d.rows(), 0..d.cols()), &mut out);
        }
        out
    }

    #[test]
    fn wire_format_roundtrip() {
        let a = Dense::identity(3);
        let mut b = Dense::zeros(2, 4);
        b[(1, 3)] = -7.5;
        let wire = encode_parts(&[&a, &b]);
        assert_eq!(decode_parts(&wire), Some(vec![a, b]));
        assert_eq!(decode_parts(&[]), Some(vec![]));
    }

    #[test]
    fn regions_travel_in_place_and_only_exact_replies_are_stored() {
        // Two regions of a 5 × 6 matrix, encoded in place, decode to the
        // sub-matrices and store back over the same regions of another.
        let src = Dense::from_blocks(&random_diagonally_dominant(1, 6, 3)).submatrix(0, 5, 0, 6);
        let regions = [(1..3, 2..6), (3..5, 0..2)];
        let mut wire = Vec::new();
        regions.iter().for_each(|r| encode_region(&src, r, &mut wire));
        assert_eq!(wire.len(), wire_len(&regions));
        let parts = decode_parts(&wire).unwrap();
        assert_eq!(parts, [src.submatrix(1, 3, 2, 6), src.submatrix(3, 5, 0, 2)]);

        let mut dst = Dense::zeros(5, 6);
        assert!(store_regions(&mut dst, &regions, &wire));
        let mut want = Dense::zeros(5, 6);
        want.set_submatrix(1, 2, &parts[0]);
        want.set_submatrix(3, 0, &parts[1]);
        assert_eq!(dst, want);

        // Right length, wrong shape (4 × 2 for 2 × 4); wrong length;
        // regions in the other order: nothing is stored.
        let untouched = dst.clone();
        let transposed = [(1..5, 2..4), (3..5, 0..2)];
        let swapped = [regions[1].clone(), regions[0].clone()];
        assert!(!store_regions(&mut dst, &transposed, &wire));
        assert!(!store_regions(&mut dst, &regions[..1], &wire));
        assert!(!store_regions(&mut dst, &regions, &wire[..wire.len() - 1]));
        assert!(!store_regions(&mut dst, &swapped, &wire));
        assert_eq!(dst, untouched);
    }

    #[test]
    fn malformed_wire_images_do_not_decode() {
        let wire = encode_parts(&[&Dense::identity(3), &Dense::zeros(2, 4)]);
        // Cut anywhere but on a part boundary: a torn header or body.
        let part_ends = [0, 8 + 72, wire.len()];
        for len in (0..wire.len()).filter(|len| !part_ends.contains(len)) {
            assert_eq!(decode_parts(&wire[..len]), None, "truncated to {len} bytes");
        }
        assert_eq!(decode_parts(&[&wire[..], &[0; 3]].concat()), None, "trailing bytes");
        // rows · cols · 8 overflows, then merely exceeds the payload.
        for (rows, cols) in [(u32::MAX, u32::MAX), (1 << 16, 1 << 16), (2, 4)] {
            let header = [rows.to_le_bytes(), cols.to_le_bytes()].concat();
            assert_eq!(decode_parts(&header), None, "{rows} x {cols} header, no body");
        }
    }

    #[test]
    fn parallel_lu_matches_serial_blocked() {
        let matrix = random_diagonally_dominant(4, 6, 31); // 24×24
        let out = run_lu(&platform(3), &matrix, 2, 0.0);
        let mut serial = Dense::from_blocks(&matrix);
        lu_blocked_in_place(&mut serial, 12);
        assert_eq!(
            out.packed.max_abs_diff(&serial),
            0.0,
            "parallel and serial factorizations diverge"
        );
        assert!(out.messages > 0);
    }

    #[test]
    fn reconstruction_is_accurate() {
        let matrix = random_diagonally_dominant(5, 4, 77); // 20×20
        let out = run_lu(&platform(4), &matrix, 1, 0.0);
        let err = scaled_residual(&out.packed, &Dense::from_blocks(&matrix));
        assert!(err < 1.0, "‖LU − A‖ / (‖A‖·n·ε) = {err}");
    }

    #[test]
    fn single_worker_also_works() {
        let matrix = random_diagonally_dominant(3, 5, 5);
        let out = run_lu(&platform(1), &matrix, 1, 0.0);
        assert!(scaled_residual(&out.packed, &Dense::from_blocks(&matrix)) < 1.0);
        assert_eq!(out.workers_used, 1);
    }

    #[test]
    fn panel_width_does_not_change_the_answer() {
        let matrix = random_diagonally_dominant(4, 4, 9); // 16×16
        let a = run_lu(&platform(2), &matrix, 1, 0.0).packed;
        let b = run_lu(&platform(2), &matrix, 2, 0.0).packed;
        let c = run_lu(&platform(2), &matrix, 4, 0.0).packed;
        assert!(a.max_abs_diff(&b) < 1e-9);
        assert!(b.max_abs_diff(&c) < 1e-9);
    }

    #[test]
    fn one_panel_exchange_per_step() {
        // 12 blocks in steps of 2 on 2 workers (the perf shape, small q):
        // 6 panel exchanges, and per step with g = 5, 4, 3, 2, 1 row
        // groups left, min(2, g) panel installs and g core exchanges.
        let matrix = random_diagonally_dominant(12, 4, 11);
        let out = run_lu(&platform(2), &matrix, 2, 0.0);
        assert_eq!(out.messages, 6 * 2 + (2 + 2 + 2 + 2 + 1) + 15 * 2);
        assert_eq!(out.messages, 51);
    }

    #[test]
    fn metered_blocks_are_the_lowered_frames_and_the_closed_form() {
        use crate::cost::{scheduled_comm, LuProblem};
        // Ragged sizes included: (r, µ, workers).
        for (r, mu, p) in [(12, 2, 2), (6, 2, 3), (7, 3, 2), (5, 2, 1), (4, 4, 2)] {
            let matrix = random_diagonally_dominant(r, 2, 60);
            let out = run_lu(&platform(p), &matrix, mu, 0.0);
            let frames: Vec<_> = lu_schedule(r, mu, p).iter().flat_map(crate::schedule::lower).collect();
            let lowered: u64 = frames
                .iter()
                .map(|frame| match frame {
                    mwp_sim::Decision::Send { blocks, .. } | mwp_sim::Decision::Recv { blocks, .. } => *blocks,
                    _ => 0,
                })
                .sum();
            assert_eq!((out.blocks_moved, out.messages), (lowered, frames.len() as u64), "{r} x {r}, µ = {mu}, {p} workers");
            if r % mu == 0 {
                assert_eq!(lowered as f64, scheduled_comm(LuProblem::new(r, mu), p));
            }
        }
        // The benchmark's shape: 904 blocks in 51 frames, where the model
        // counts 1 008.
        let out = run_lu(&platform(2), &random_diagonally_dominant(12, 2, 61), 2, 0.0);
        assert_eq!((out.blocks_moved, out.messages), (904, 51));
        assert_eq!(LuProblem::new(12, 2).total().comm, 1008.0);
    }

    #[test]
    fn a_paced_link_is_charged_each_frames_true_size() {
        // One worker, c = 1, 1 ms per block: 4 × 4 blocks at µ = 2 are 7
        // frames of 48 blocks in all, so the run takes at least 48 ms — a
        // per-message meter would charge it 7.
        let matrix = random_diagonally_dominant(4, 2, 62);
        let session = LuSession::with_transport(&platform(1), 1e-3, TransportMode::Channel);
        let out = session.run(&matrix, 2);
        session.shutdown();
        assert_eq!((out.messages, out.blocks_moved), (7, 48));
        assert!(out.wall.as_secs_f64() >= out.blocks_moved as f64 * 1e-3, "{:?} for {} blocks", out.wall, out.blocks_moved);
    }

    #[test]
    fn a_malformed_task_drops_the_link_without_unwinding_the_worker() {
        // What arrives on a link is not trusted to be what the master
        // program sends: a torn payload, an unknown op code and a core
        // update before any panel install each close the link — the master sees a dead worker — and the
        // worker thread returns instead of panicking (`shutdown` re-raises
        // a worker's panic).
        let core_task = encode_parts(&[&Dense::identity(2), &Dense::zeros(2, 4)]);
        let torn = core_task[..core_task.len() - 3].to_vec();
        for (what, op, payload) in [
            ("torn payload", OP_PANEL, torn),
            ("unknown op", 7, encode_parts(&[&Dense::identity(2)])),
            ("core before install", OP_CORE, core_task),
        ] {
            let session = LuSession::with_transport(&platform(1), 0.0, TransportMode::Channel);
            let epoch = session.inner.begin_run(1, 2);
            let master = session.inner.master();
            let tag = Tag::new(FrameKind::LuPanel, op, 0);
            let frame = Frame::new_in_run(tag, epoch.generation(), payload.into());
            assert!(master.try_send(WorkerId(0), frame, 1).is_some(), "{what}");
            assert!(master.recv_deadline(WorkerId(0), epoch.generation(), 1).is_none(), "{what}: a reply");
            session.inner.abort_run(1, epoch);
            assert_eq!(session.shutdown(), 1, "{what}: the worker thread must return, not unwind");
        }
    }

    #[test]
    fn concurrent_callers_take_turns_on_one_session() {
        // The LU worker serves one run at a time: a second caller's
        // RUN_BEGIN landing inside the first caller's run would make the
        // worker drop its link, and the session would count it dead.
        let session = LuSession::new(&platform(2), 0.0);
        let jobs: Vec<_> = (0..2u64)
            .map(|j| {
                let matrix = random_diagonally_dominant(6, 4, 40 + j);
                let solo = session.run(&matrix, 2).packed;
                (matrix, solo)
            })
            .collect();
        let start = std::sync::Barrier::new(jobs.len());
        std::thread::scope(|scope| {
            for (matrix, solo) in &jobs {
                let (session, start) = (&session, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..4 {
                        let out = session.run(matrix, 2);
                        assert_eq!(out.packed.max_abs_diff(solo), 0.0, "concurrent vs solo");
                    }
                });
            }
        });
        assert_eq!(session.dead_workers(), 0);
        assert_eq!(session.shutdown(), 2);
    }

    /// What a rogue worker answers a task with, given the shapes an honest
    /// reply would have.
    type RogueReply = fn(&[(usize, usize)]) -> Vec<u8>;

    /// Honest and rogue workers of one session share a program type.
    type Program = Box<dyn FnMut(u32, &WorkerEndpoint) -> RunExit + Send>;

    /// The wire image of zero matrices of `shapes`.
    fn zeros_wire(shapes: &[(usize, usize)]) -> Vec<u8> {
        let parts: Vec<Dense> = shapes.iter().map(|&(r, c)| Dense::zeros(r, c)).collect();
        encode_parts(&parts.iter().collect::<Vec<_>>())
    }

    const SHORT_PAYLOAD: RogueReply = |shapes| {
        let mut wire = zeros_wire(shapes);
        wire.truncate(wire.len() - 8);
        wire
    };

    const ROGUE_REPLIES: [(&str, RogueReply); 5] = [
        ("short payload", SHORT_PAYLOAD),
        ("trailing bytes", |shapes| [zeros_wire(shapes), vec![0; 3]].concat()),
        ("overflowing header", |_| [u32::MAX.to_le_bytes(); 2].concat()),
        ("mis-shaped part", |shapes| {
            zeros_wire(&shapes.iter().map(|&(r, c)| (r + 1, c)).collect::<Vec<_>>())
        }),
        ("extra part", |shapes| zeros_wire(&[shapes, &[(1, 1)]].concat())),
    ];

    /// A channel-transport fleet whose workers picked by `rogue` answer
    /// every task with `reply` instead of computing; the rest are honest.
    fn fleet_with_rogues(
        p: usize,
        rogue: impl Fn(WorkerId) -> bool,
        reply: RogueReply,
    ) -> LuSession {
        LuSession::over(Session::spawn_with_transport(
            &platform(p),
            0.0,
            TransportMode::Channel,
            |id, _| -> Program {
                if !rogue(id) {
                    let mut horiz_pack = PackedB::new();
                    return Box::new(move |_q, ep| serve_lu_run(ep, &mut horiz_pack));
                }
                Box::new(move |_q, ep| loop {
                    let Ok(frame) = ep.recv() else { return RunExit::Terminate };
                    let task = match frame.tag.kind {
                        FrameKind::Shutdown => return RunExit::Terminate,
                        FrameKind::Control => return RunExit::Completed,
                        _ => decode_parts(&frame.payload).expect("the master is honest"),
                    };
                    let shapes: Vec<_> = task.iter().map(|d| (d.rows(), d.cols())).collect();
                    let honest = match frame.tag.i as usize {
                        OP_SET_HORIZ => continue,
                        OP_CORE => &shapes[1..],
                        _ => &shapes[..],
                    };
                    ep.send(Frame::new(frame.tag, reply(honest).into()));
                })
            },
        ))
    }

    #[test]
    fn rogue_replies_condemn_the_worker_not_the_master() {
        // Worker-supplied headers and shapes must be checked before
        // anything is sliced, allocated or written into the matrix: each
        // rogue reply costs its sender the link, the op is retried or
        // re-dispatched, and the survivor's result is exact — whether the
        // rogue holds the pivot chain (slot 0) or only core groups.
        let matrix = random_diagonally_dominant(6, 4, 51);
        let healthy = run_lu(&platform(2), &matrix, 2, 0.0).packed;
        for (what, reply) in ROGUE_REPLIES {
            for slot in [WorkerId(0), WorkerId(1)] {
                let session = fleet_with_rogues(2, |id| id == slot, reply);
                let out = session.run(&matrix, 2);
                assert!(!out.aborted, "{what} from {slot:?}");
                assert_eq!(out.packed.max_abs_diff(&healthy), 0.0, "{what} from {slot:?}");
                assert_eq!(session.dead_workers(), 1, "{what}: only the rogue is condemned");
                assert_eq!(session.shutdown(), 2, "{what}");
            }
        }
    }

    #[test]
    fn losing_the_whole_fleet_aborts_the_run_and_the_session_recovers() {
        let matrix = random_diagonally_dominant(6, 4, 52);
        let healthy = run_lu(&platform(2), &matrix, 2, 0.0).packed;
        let mut session = fleet_with_rogues(2, |_| true, SHORT_PAYLOAD);
        assert!(session.run(&matrix, 2).aborted, "no survivor can take the pivot chain");
        assert_eq!(session.dead_workers(), 2);
        assert!(session.run(&matrix, 2).aborted, "a fleet of dead workers aborts again");
        assert_eq!(session.prune_dead(), 2);
        assert!(session.platform().is_none());
        assert!(session.run(&matrix, 2).aborted, "and so does an empty fleet");

        // One honest worker dials in: the same session serves a clean run.
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let worker = std::thread::spawn(move || {
            let patience = std::time::Duration::from_secs(10);
            let config = Config::default();
            let (ep, _) =
                mwp_msg::transport::enroll_with_retry(&endpoint, patience, None, b"", &config)
                    .expect("enrollment succeeds");
            serve_remote(ep);
        });
        session.admit(&listener, mwp_platform::WorkerParams::new(1.0, 1.0, 1000)).unwrap();
        let out = session.run(&matrix, 2);
        assert!(!out.aborted);
        assert_eq!(out.packed.max_abs_diff(&healthy), 0.0);
        session.shutdown();
        worker.join().unwrap();
    }
}
