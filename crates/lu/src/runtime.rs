//! Threaded LU execution with real arithmetic over the message layer.
//!
//! The counterpart of [`crate::homogeneous`]'s simulation: the master (the
//! calling thread) drives the right-looking factorization of Section 7.2
//! over [`mwp_msg`], one worker factoring pivots and updating panels, `P`
//! workers updating core column groups in parallel — all with real `f64`
//! arithmetic, verified against the serial blocked factorization.
//!
//! The message layer moves self-describing dense sub-matrices (a tiny
//! `rows × cols` header before the coefficients). The step's horizontal
//! panel — the B operand of every core update — is encoded once and
//! fanned out to the enrolled workers as refcounted views of one buffer
//! (`OP_SET_HORIZ`); each worker **packs it once** for the dispatched
//! kernel and keeps the pack resident for the step, so the rank-µ updates
//! of all its row groups stream against one prepacked panel instead of
//! repacking per core task. Core-group tasks then carry only their own
//! rows of the vertical panel and of the core. All payloads are built in
//! recycled buffer pools, so the steady-state message path allocates
//! nothing. The simulation in [`crate::homogeneous`] models the paper's
//! exact volumes (the core is square, so row groups move exactly the
//! bytes column groups did).
//!
//! Worker threads live in a persistent [`LuSession`]: spawned once per
//! platform, parked on blocking receives between runs. [`run_lu`] is
//! one-shot (a fresh session per call); repeated-factorization workloads
//! hold an [`LuSession`] and call [`LuSession::run`].

use mwp_blockmat::kernel::PackedB;
use mwp_blockmat::lu::{lu_factor_in_place, trsm_left_unit_lower, trsm_right_upper, Dense};
use mwp_blockmat::BlockMatrix;
use mwp_msg::config::run_deadline;
use mwp_msg::session::{serve_worker, RunExit, Session, RUN_ABORT, RUN_END};
use mwp_msg::transport::SERVICE_LU;
use mwp_msg::{BufferPool, Frame, FrameKind, Tag, TransportListener, TransportMode, WorkerEndpoint};
use mwp_platform::{Platform, WorkerId};
use mwp_trace::{record, Activity, ActivityKind, Resource};
use std::time::Instant;

/// Operation codes carried in the frame tag's `i` field.
const OP_FACTOR: usize = 0;
const OP_TRSM_RIGHT: usize = 1;
const OP_TRSM_LEFT: usize = 2;
const OP_CORE: usize = 3;
/// Install the step's horizontal panel in the worker's resident state.
/// The panel is encoded **once** per step and fanned out to every
/// enrolled worker as refcounted views of the same buffer, instead of
/// being re-encoded into every core-update message — and the worker
/// packs it once per step for the kernel, instead of once per core task.
const OP_SET_HORIZ: usize = 4;

/// Outcome of a threaded LU run.
#[derive(Debug)]
pub struct LuRunOutcome {
    /// Packed factors (L below the unit diagonal, U on and above it).
    pub packed: Dense,
    /// Wall-clock duration.
    pub wall: std::time::Duration,
    /// Dense sub-matrices moved through the master port (both ways).
    pub messages: u64,
    /// Workers enrolled.
    pub workers_used: usize,
    /// `true` when the whole-run deadline (`MWP_RUN_DEADLINE_MS`) elapsed
    /// and the master broadcast `RUN_ABORT` instead of finishing: `packed`
    /// then holds a **partial** factorization and must be discarded. The
    /// session itself stays serving — the next run starts clean.
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
    /// Last plan: (membership epoch, enrolled workers). LU enrolls the
    /// whole fleet, so the plan is its size — but re-deriving it per
    /// epoch makes re-planning on fleet change observable ([`LuSession::replans`])
    /// and keeps the LU runtime on the same control-plane contract as
    /// the matrix-product runtimes.
    plan: std::sync::Mutex<Option<(u64, usize)>>,
    /// Fresh plans computed (see [`LuSession::replans`]).
    replans: std::sync::atomic::AtomicU64,
    /// Held by [`LuSession::run`] for its whole run: the LU worker program
    /// serves one run at a time (an interleaved `RUN_BEGIN` would be
    /// misread by an in-run worker), so concurrent callers take turns.
    run_lock: std::sync::Mutex<()>,
}

impl LuSession {
    /// Spawn the pool for `platform`. `time_scale` paces the links
    /// (0 = off), exactly as in [`run_lu`]. The frame transport follows
    /// `MWP_TRANSPORT` (channels by default, loopback sockets otherwise).
    pub fn new(platform: &Platform, time_scale: f64) -> Self {
        Self::with_transport(platform, time_scale, mwp_msg::config::transport_mode())
    }

    /// [`LuSession::new`] with an explicit transport, ignoring
    /// `MWP_TRANSPORT` — how tests cross-validate the channel and socket
    /// backends bit-for-bit inside one process.
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

    /// Wrap a spawned/accepted fleet with fresh (empty) plan state.
    fn over(inner: Session) -> Self {
        LuSession {
            inner,
            plan: std::sync::Mutex::new(None),
            replans: std::sync::atomic::AtomicU64::new(0),
            run_lock: std::sync::Mutex::new(()),
        }
    }

    /// A session whose workers are **remote processes**: accepts one
    /// enrollment per platform worker from `listener`, announcing the LU
    /// service id so each `mwp-worker` runs the LU op server. Driven
    /// exactly like a local session; results are bit-identical.
    pub fn accept_remote(
        platform: &Platform,
        time_scale: f64,
        listener: &TransportListener,
    ) -> std::io::Result<Self> {
        let inner = Session::accept_remote(platform, time_scale, listener, SERVICE_LU)?;
        Ok(Self::over(inner))
    }

    /// The current fleet as a platform description — `None` after every
    /// worker was pruned ([`LuSession::run`] panics on an empty fleet;
    /// admit a worker first).
    pub fn platform(&self) -> Option<&Platform> {
        self.inner.platform()
    }

    /// The fleet's membership epoch (see [`Session::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// How many fresh enrollment plans this session has computed: one
    /// for the first run, plus one per membership change that a later
    /// run observed.
    pub fn replans(&self) -> u64 {
        self.replans.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The run's enrollment, re-planned whenever the fleet generation
    /// changed since the last run.
    fn plan_run(&self) -> usize {
        let epoch = self.inner.epoch();
        let mut plan = self.plan.lock().unwrap();
        if let Some((e, enrolled)) = *plan {
            if e == epoch {
                return enrolled;
            }
        }
        let enrolled = self.inner.workers();
        assert!(enrolled > 0, "no workers enrolled: the fleet is empty");
        self.replans.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        *plan = Some((epoch, enrolled));
        enrolled
    }

    /// Number of pooled workers.
    pub fn workers(&self) -> usize {
        self.inner.workers()
    }

    /// Factor `matrix` on the pooled workers (see [`run_lu`]). Concurrent
    /// callers serialize: a session factors one matrix at a time.
    pub fn run(&self, matrix: &BlockMatrix, mu_blocks: usize) -> LuRunOutcome {
        // The lock guards no data, so a poisoned one is still usable.
        let _exclusive =
            self.run_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        lu_on(self, matrix, mu_blocks)
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
    /// platform in lockstep (see [`Session::prune_dead`] — a non-empty
    /// prune advances the membership epoch, so the next run re-plans its
    /// enrollment). Returns how many were removed. Pruning the whole
    /// fleet leaves the session empty; [`LuSession::run`] panics until
    /// an [`LuSession::admit`] repopulates it.
    pub fn prune_dead(&mut self) -> usize {
        self.inner.prune_dead().len()
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

/// Panics on malformed inputs; returns `(n, nb)` — matrix side and panel
/// width in coefficients. Pure, so the one-shot wrapper can reject bad
/// calls before spawning a session.
fn validate_lu(matrix: &BlockMatrix, mu_blocks: usize) -> (usize, usize) {
    let (n, m) = matrix.dims();
    assert_eq!(n, m, "LU needs a square matrix");
    let nb = mu_blocks * matrix.q();
    assert!(nb > 0, "panel width must be positive");
    (n, nb)
}

/// The master side of the factorization, executed as one run of
/// `session`'s worker pool.
fn lu_on(session: &LuSession, matrix: &BlockMatrix, mu_blocks: usize) -> LuRunOutcome {
    let (n, nb) = validate_lu(matrix, mu_blocks);

    let enrolled = session.plan_run();
    let epoch = session.inner.begin_run(enrolled, matrix.q() as u32);
    let master = session.inner.master();
    // Recycled encode buffers for every master-side task payload.
    let port = LuPort { master, pool: BufferPool::new(), gen: epoch.generation() };

    let start = Instant::now();
    let mut a = Dense::from_blocks(matrix);
    let mut messages: u64 = 0;

    // Whole-run budget (`MWP_RUN_DEADLINE_MS`): checked once per panel
    // step, the coarsest unit after which `a` is still a consistent
    // partial factorization.
    let deadline = run_deadline();

    let mut k0 = 0;
    while k0 < n {
        if let Some(budget) = deadline {
            if start.elapsed() > budget {
                session.inner.abort_run(enrolled, epoch);
                return LuRunOutcome {
                    packed: a,
                    wall: start.elapsed(),
                    messages,
                    workers_used: enrolled,
                    aborted: true,
                };
            }
        }
        let k1 = (k0 + nb).min(n);
        // --- 1. Pivot factorization on the pivot worker (the lowest
        //        live id; historically worker 0, and still worker 0
        //        until it dies). ----------------------------------------
        let pivot_in = a.submatrix(k0, k1, k0, k1);
        let pivot = port.pivot_exchange(enrolled, OP_FACTOR, &[&pivot_in], &mut messages);
        a.set_submatrix(k0, k0, &pivot);

        if k1 < n {
            // --- 2. Vertical panel (x ← x·U⁻¹) on the pivot worker. -----
            let vert_in = a.submatrix(k1, n, k0, k1);
            let vert =
                port.pivot_exchange(enrolled, OP_TRSM_RIGHT, &[&pivot, &vert_in], &mut messages);
            a.set_submatrix(k1, k0, &vert);

            // --- 3. Horizontal panel (y ← L⁻¹·y) on the pivot worker. ---
            let horiz_in = a.submatrix(k0, k1, k1, n);
            let horiz =
                port.pivot_exchange(enrolled, OP_TRSM_LEFT, &[&pivot, &horiz_in], &mut messages);
            a.set_submatrix(k0, k1, &horiz);

            // --- 4. Core update, row groups round-robin over the live
            //        fleet. ----------------------------------------------
            // The core is square, so nb-deep row groups are exactly as
            // many (and as large) as the nb-wide column groups used
            // before — but partitioning by rows makes the *horizontal*
            // panel the operand shared by every group, which the worker
            // packs once per step and reuses across all its groups.
            let mut groups = Vec::new();
            let mut r0 = k1;
            while r0 < n {
                let r1 = (r0 + nb).min(n);
                groups.push((r0, r1));
                r0 = r1;
            }
            let live: Vec<WorkerId> =
                (0..enrolled).map(WorkerId).filter(|&w| !master.is_dead(w)).collect();
            assert!(!live.is_empty(), "every LU worker died mid-run");
            // The horizontal panel is common to every core update of this
            // step: encode it once and fan the same buffer out to each
            // worker that will compute at least one group (a refcount
            // bump per send, zero copies). A worker the fanout fails on
            // is condemned; its groups go to the re-dispatch pass below.
            let horiz_payload = port
                .pool
                .bytes_with(parts_len(&[&horiz]), |buf| encode_parts_into(&[&horiz], buf));
            let mut got_horiz = vec![false; enrolled];
            for w in live.iter().take(groups.len()) {
                if port.send_payload(*w, OP_SET_HORIZ, horiz_payload.clone()) {
                    got_horiz[w.index()] = true;
                    messages += 1;
                }
            }
            // Ship every group first (parallel compute), then collect.
            // `assigned[g]` remembers which worker got group g, `None`
            // when the ship already failed.
            let mut assigned: Vec<Option<WorkerId>> = Vec::with_capacity(groups.len());
            for (g, &(r0, r1)) in groups.iter().enumerate() {
                let to = live[g % live.len()];
                let shipped = !master.is_dead(to) && got_horiz[to.index()] && {
                    let vert_g = vert.submatrix(r0 - k1, r1 - k1, 0, k1 - k0);
                    let core_g = a.submatrix(r0, r1, k1, n);
                    port.send_task(to, OP_CORE, &[&vert_g, &core_g])
                };
                if shipped {
                    messages += 1;
                }
                assigned.push(shipped.then_some(to));
            }
            // Collect; groups lost to a death anywhere in the exchange
            // are re-dispatched. `a` is only mutated by a successfully
            // collected group, so a lost group's inputs (`vert`, the
            // core rows) are still pristine on the master and replay
            // bit-identically on whichever survivor takes it.
            let mut lost: Vec<usize> = Vec::new();
            for (g, &(r0, r1)) in groups.iter().enumerate() {
                let collected = assigned[g].is_some_and(|from| {
                    match port.recv_dense(from) {
                        Some(updated) => {
                            messages += 1;
                            debug_assert_eq!(updated.rows(), r1 - r0);
                            a.set_submatrix(r0, k1, &updated);
                            true
                        }
                        None => false,
                    }
                });
                if !collected {
                    lost.push(g);
                }
            }
            // Re-dispatch pass: serve each lost group on the lowest live
            // worker, re-sending OP_SET_HORIZ first — the survivor's
            // resident panel install is idempotent, and a worker beyond
            // the original fanout never had it.
            for g in lost {
                let (r0, r1) = groups[g];
                loop {
                    let Some(wid) = (0..enrolled).map(WorkerId).find(|&w| !master.is_dead(w))
                    else {
                        panic!("every LU worker died mid-run: a core group cannot be re-dispatched")
                    };
                    if !port.send_payload(wid, OP_SET_HORIZ, horiz_payload.clone()) {
                        continue;
                    }
                    messages += 1;
                    let shipped = {
                        let vert_g = vert.submatrix(r0 - k1, r1 - k1, 0, k1 - k0);
                        let core_g = a.submatrix(r0, r1, k1, n);
                        port.send_task(wid, OP_CORE, &[&vert_g, &core_g])
                    };
                    if !shipped {
                        continue;
                    }
                    messages += 1;
                    if let Some(updated) = port.recv_dense(wid) {
                        messages += 1;
                        a.set_submatrix(r0, k1, &updated);
                        break;
                    }
                }
            }
        }
        k0 = k1;
    }

    session.inner.finish_run(enrolled, epoch);

    LuRunOutcome {
        packed: a,
        wall: start.elapsed(),
        messages,
        workers_used: enrolled,
        aborted: false,
    }
}

/// Worker loop for **one run** of a session: decode the op, run the
/// kernel, return the result matrix. Parks back into the session's outer
/// loop on `RUN_END`.
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
            FrameKind::Control if frame.tag.i == RUN_END => return RunExit::Completed,
            // Cooperative abort: the master gave up on this run. The
            // pack buffer's capacity stays warm for the next run, exactly
            // as on a normal RUN_END.
            FrameKind::Control if frame.tag.i == RUN_ABORT => return RunExit::Completed,
            // Any other control frame here means the master aborted a run
            // without closing it and the session was reused (a fresh
            // RUN_BEGIN would otherwise be fed to decode_parts): fail
            // loudly instead of factoring against stale state.
            FrameKind::Control => panic!(
                "control frame {} inside an LU run: session reused after an aborted run",
                frame.tag.i
            ),
            _ => {}
        }
        debug_assert_eq!(frame.tag.kind, FrameKind::LuPanel);
        // One Compute span per LU op served (the worker's occupancy unit,
        // matching the sim's per-task granularity); the once-per-step
        // panel pack gets its own detail span below.
        let tc = record::enabled().then(record::now);
        let parts = decode_parts(&frame.payload);
        let result = match frame.tag.i as usize {
            OP_FACTOR => {
                let mut pivot = parts.into_iter().next().expect("pivot payload");
                lu_factor_in_place(&mut pivot);
                pivot
            }
            OP_TRSM_RIGHT => {
                let mut it = parts.into_iter();
                let pivot = it.next().expect("pivot");
                let mut panel = it.next().expect("panel");
                trsm_right_upper(&mut panel, &pivot);
                panel
            }
            OP_TRSM_LEFT => {
                let mut it = parts.into_iter();
                let pivot = it.next().expect("pivot");
                let mut panel = it.next().expect("panel");
                trsm_left_unit_lower(&mut panel, &pivot);
                panel
            }
            OP_SET_HORIZ => {
                let panel = parts.into_iter().next().expect("horizontal panel");
                // One pack per rank-µ step, consumed by every core row
                // group of the step (the pack snapshot stays valid until
                // the next step's install overwrites the panel).
                let tp = record::enabled().then(record::now);
                panel.pack_sub_mul_for(kernel, horiz_pack);
                if let Some(tp) = tp {
                    record::record(
                        Activity::new(
                            Resource::WorkerDetail(ep.id()),
                            ActivityKind::Pack,
                            ep.id(),
                            tp,
                            record::now(),
                            "pack panel".into(),
                        )
                        .with_run(frame.run),
                    );
                }
                horiz_installed = true;
                continue; // stateful install: nothing to send back
            }
            OP_CORE => {
                let mut it = parts.into_iter();
                let vert_g = it.next().expect("vertical group");
                let mut core_g = it.next().expect("core group");
                assert!(horiz_installed, "OP_SET_HORIZ must precede OP_CORE (FIFO order)");
                core_g.sub_mul_prepacked(kernel, &vert_g, horiz_pack);
                core_g
            }
            op => unreachable!("unknown LU op {op}"),
        };
        if let Some(tc) = tc {
            record::record(
                Activity::new(
                    Resource::Worker(ep.id()),
                    ActivityKind::Compute,
                    ep.id(),
                    tc,
                    record::now(),
                    "LU op".into(),
                )
                .with_run(frame.run),
            );
        }
        let payload =
            ep.pooled_payload(parts_len(&[&result]), |buf| encode_parts_into(&[&result], buf));
        ep.send(Frame::new(
            Tag::new(FrameKind::LuPanel, frame.tag.i as usize, frame.tag.j as usize),
            payload,
        ));
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

/// The master's side of one open LU run: every task frame goes out stamped
/// with the run's generation and every result is received scoped to it.
struct LuPort<'a> {
    master: &'a mwp_msg::MasterEndpoint,
    pool: BufferPool,
    gen: u32,
}

impl LuPort<'_> {
    /// Run one pivot-phase exchange (factor/TRSM) on the lowest live
    /// worker, retrying on the next-lowest when that worker dies
    /// mid-exchange. The inputs all come from master state, so a retry
    /// replays the identical task; panics when the whole fleet is dead.
    fn pivot_exchange(
        &self,
        enrolled: usize,
        op: usize,
        parts: &[&Dense],
        messages: &mut u64,
    ) -> Dense {
        loop {
            let Some(wid) = (0..enrolled).map(WorkerId).find(|&w| !self.master.is_dead(w)) else {
                panic!("every LU worker died mid-run: pivot op {op} cannot be completed")
            };
            if self.send_task(wid, op, parts) {
                if let Some(result) = self.recv_dense(wid) {
                    *messages += 2;
                    return result;
                }
            }
            // `wid` was condemned by the failed send or receive; the next
            // loop iteration lands on the next-lowest live worker.
        }
    }

    /// Failure-aware task send: `false` (with `to` condemned) when the
    /// worker's link is dead.
    fn send_task(&self, to: WorkerId, op: usize, parts: &[&Dense]) -> bool {
        let payload = self.pool.bytes_with(parts_len(parts), |buf| encode_parts_into(parts, buf));
        self.send_payload(to, op, payload)
    }

    /// Send an already-encoded task. Block accounting: total coefficients
    /// / q² is what the cost model would count; the runtime meters whole
    /// messages instead.
    fn send_payload(&self, to: WorkerId, op: usize, payload: bytes::Bytes) -> bool {
        let frame = Frame::new_in_run(Tag::new(FrameKind::LuPanel, op, 0), self.gen, payload);
        self.master.try_send(to, frame, 1).is_some()
    }

    /// Failure-aware result receive: `None` — with `from` marked dead —
    /// when the worker dies or stays silent past the liveness deadline.
    fn recv_dense(&self, from: WorkerId) -> Option<Dense> {
        let Some((frame, _)) = self.master.recv_deadline(from, self.gen, 1) else {
            self.master.mark_dead(from);
            return None;
        };
        Some(decode_parts(&frame.payload).into_iter().next().expect("result payload"))
    }
}

/// Total encoded size of a parts sequence.
fn parts_len(parts: &[&Dense]) -> usize {
    parts.iter().map(|d| 8 + d.rows() * d.cols() * 8).sum()
}

/// Encode a sequence of dense matrices into `out`: per part, `rows u32 |
/// cols u32 | rows·cols f64 LE`. On little-endian targets the coefficient
/// image is one bulk copy.
fn encode_parts_into(parts: &[&Dense], out: &mut Vec<u8>) {
    out.reserve(parts_len(parts));
    for d in parts {
        out.extend_from_slice(&(d.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(d.cols() as u32).to_le_bytes());
        let coeffs = d.as_slice();
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

/// Encode into a fresh buffer (tests; the runtime encodes into pooled
/// buffers via [`encode_parts_into`]).
#[cfg(test)]
fn encode_parts(parts: &[&Dense]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts_len(parts));
    encode_parts_into(parts, &mut out);
    out
}

/// Decode the wire format of [`encode_parts_into`].
fn decode_parts(buf: &[u8]) -> Vec<Dense> {
    let mut parts = Vec::new();
    let mut off = 0;
    while off + 8 <= buf.len() {
        let rows = u32::from_le_bytes(buf[off..off + 4].try_into().expect("header")) as usize;
        let cols = u32::from_le_bytes(buf[off + 4..off + 8].try_into().expect("header")) as usize;
        off += 8;
        let n = rows * cols;
        let mut d = Dense::zeros(rows, cols);
        let bytes = &buf[off..off + n * 8];
        #[cfg(target_endian = "little")]
        unsafe {
            // Byte copy into the f64-aligned destination.
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                d.as_mut_slice().as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
        #[cfg(not(target_endian = "little"))]
        for (dst, c) in d.as_mut_slice().iter_mut().zip(bytes.chunks_exact(8)) {
            *dst = f64::from_le_bytes(c.try_into().expect("coefficient"));
        }
        off += n * 8;
        parts.push(d);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwp_blockmat::fill::random_diagonally_dominant;
    use mwp_blockmat::lu::{lu_blocked_in_place, reconstruct};

    fn platform(p: usize) -> Platform {
        Platform::homogeneous(p, 1.0, 1.0, 1000).unwrap()
    }

    #[test]
    fn wire_format_roundtrip() {
        let a = Dense::identity(3);
        let mut b = Dense::zeros(2, 4);
        b[(1, 3)] = -7.5;
        let wire = encode_parts(&[&a, &b]);
        let parts = decode_parts(&wire);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn parallel_lu_matches_serial_blocked() {
        let matrix = random_diagonally_dominant(4, 6, 31); // 24×24
        let out = run_lu(&platform(3), &matrix, 2, 0.0);
        let mut serial = Dense::from_blocks(&matrix);
        lu_blocked_in_place(&mut serial, 12);
        assert!(
            out.packed.max_abs_diff(&serial) < 1e-10,
            "parallel and serial factorizations diverge"
        );
        assert!(out.messages > 0);
    }

    #[test]
    fn reconstruction_is_accurate() {
        let matrix = random_diagonally_dominant(5, 4, 77); // 20×20
        let out = run_lu(&platform(4), &matrix, 1, 0.0);
        let a = Dense::from_blocks(&matrix);
        let err = reconstruct(&out.packed).max_abs_diff(&a);
        assert!(err < 1e-9, "‖LU − A‖ = {err}");
    }

    #[test]
    fn single_worker_also_works() {
        let matrix = random_diagonally_dominant(3, 5, 5);
        let out = run_lu(&platform(1), &matrix, 1, 0.0);
        let a = Dense::from_blocks(&matrix);
        assert!(reconstruct(&out.packed).max_abs_diff(&a) < 1e-9);
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
    fn concurrent_callers_take_turns_on_one_session() {
        // The LU worker serves one run at a time: a second caller's
        // RUN_BEGIN landing inside the first caller's run would panic the
        // worker, which `shutdown` would re-raise here.
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
        assert_eq!(session.shutdown(), 2);
    }
}
