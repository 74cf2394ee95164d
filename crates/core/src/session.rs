//! Persistent matrix-product sessions: the worker pool behind the
//! threaded runtime.
//!
//! A [`RuntimeSession`] spawns the star's worker threads **once** for a
//! platform description and then serves any number of HoLM / ORROML /
//! heterogeneous runs, each delimited by the message layer's
//! `RUN_BEGIN`/`RUN_END` frames (see [`mwp_msg::session`]). Worker state
//! — payload buffer pools, and per block side `q` the chunk's and the B
//! row's row-major slabs with the row's one pack
//! ([`mwp_blockmat::kernel::PackedB`]) — outlives each run: a run refills
//! in place the storage the last run of its `q` left, so a
//! repeated-run workload pays the thread spawn/join and allocation
//! warm-up cost exactly once:
//!
//! ```
//! use mwp_core::session::RuntimeSession;
//! use mwp_blockmat::fill::random_matrix;
//! use mwp_platform::Platform;
//!
//! let platform = Platform::homogeneous(4, 4.0, 1.0, 60).unwrap();
//! let session = RuntimeSession::new(&platform, 0.0);
//! for round in 0..3 {
//!     let a = random_matrix(5, 7, 8, round);
//!     let b = random_matrix(7, 9, 8, round + 100);
//!     let c0 = random_matrix(5, 9, 8, round + 200);
//!     let out = session.run_holm(&a, &b, c0).unwrap();
//!     assert!(out.blocks_moved > 0);
//! }
//! assert_eq!(session.shutdown(), 4); // all worker threads join cleanly
//! ```
//!
//! The one-shot entry points ([`crate::runtime::run_holm`], …) are thin
//! wrappers: each call spawns a session, runs once and shuts it down.
//! Results are bit-identical to a held session's — both execute the same
//! master and worker code: every `run_*` method plans (resource selection
//! against [`RuntimeSession::platform`] as it stands), generates the run's
//! [`crate::schedule::Schedule`] and hands it to the one master executor
//! in [`crate::runtime`].
//!
//! The fleet itself — links, fingerprints, and the platform description
//! that `admit` grows and `prune_dead` compacts — lives in the wrapped
//! [`mwp_msg::session::Session`]; this type adds the memory ledger that
//! admits every run. It is the one fleet type: LU factorizations
//! (`mwp_lu::runtime::factor`) run on it too, through
//! [`RuntimeSession::execute`].
//!
//! **Admission and placement.** Worker `i` holds at most `m_i` blocks
//! (§2), and a run whose chunk side there is `µ_i` keeps at most the
//! `µ_i² + 4µ_i` blocks of its layout on it (§5). The ledger counts, per
//! worker, the blocks of every open run, and it places each run as it
//! admits it, in one step under its lock. A run names its chunk sides
//! per *slot*. On a homogeneous fleet, a run of fewer slots than the
//! fleet has workers — a HoLM plan after §5's selection — may run on any
//! of them, so its slots go to the live workers that hold the fewest
//! blocks, lowest id first on a tie. Every other run (LU, heterogeneous,
//! ORROML) puts slot `i` on worker `i`. A run opens only once its
//! footprint fits beside the open runs' on the workers it was placed on —
//! or once no run is open at all. So a solo run on an idle fleet runs on
//! workers `0..n`; one-worker runs arriving together spread over the
//! fleet; runs whose footprints fill `m` everywhere take turns; smaller
//! ones overlap, and the worker program keeps state per run generation.
//! Products, heterogeneous runs, LU factorizations and the serving tier's
//! batches all reserve this way, in [`RuntimeSession::execute`].

use crate::runtime::{
    execute, heterogeneous_on, holm_on, plan_holm, program, Port, RunOutcome, RuntimeError,
};
use crate::layout::MemoryLayout;
use crate::selection::incremental::SelectionRule;
use mwp_blockmat::kernel::{self, Kernel};
use mwp_blockmat::BlockMatrix;
use mwp_msg::config::Config;
use mwp_msg::session::Session;
use mwp_msg::{MasterEndpoint, TransportListener, TransportMode};
use mwp_platform::{Platform, WorkerId};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A persistent worker pool serving the paper's matrix-product runtimes.
pub struct RuntimeSession {
    inner: Session,
    /// `reserved[i]`: the blocks the open runs keep on worker `i`.
    reserved: Mutex<Vec<usize>>,
    /// Wakes the runs waiting in [`RuntimeSession::reserve`] when one
    /// returns its blocks.
    released: Condvar,
}

/// A run's footprint in the ledger, returned when it drops — whether the
/// run finished, aborted, failed or unwound.
pub(crate) struct Reservation<'s> {
    session: &'s RuntimeSession,
    /// The worker of each slot, ascending.
    workers: Vec<WorkerId>,
    /// The blocks each slot keeps on its worker.
    blocks: Vec<usize>,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        let mut reserved = self.session.ledger();
        self.workers.iter().zip(&self.blocks).for_each(|(w, blocks)| reserved[w.index()] -= blocks);
        self.session.released.notify_all();
    }
}

impl RuntimeSession {
    /// Spawn the pool: one parked worker thread per platform worker, each
    /// holding its scratch state (and its endpoint's payload buffer pool)
    /// across runs. `time_scale` paces the links (0 = off), exactly as in
    /// the one-shot entry points. The frames travel over in-process
    /// channels, and every worker computes with the fastest kernel this
    /// CPU runs.
    pub fn new(platform: &Platform, time_scale: f64) -> Self {
        Self::with_transport(platform, time_scale, TransportMode::Channel)
    }

    /// [`RuntimeSession::new`] with an explicit transport (loopback
    /// TCP/Unix sockets: same workers, same programs) — how tests
    /// cross-validate the channel and socket backends bit-for-bit inside
    /// one process.
    pub fn with_transport(platform: &Platform, time_scale: f64, mode: TransportMode) -> Self {
        Self::with_kernels(platform, time_scale, mode, &vec![kernel::active(); platform.len()])
    }

    /// [`RuntimeSession::with_transport`] whose worker `i` computes with
    /// `kernels[i]` — every pack, block update and panel solve it runs. A
    /// fleet of `scalar` workers reproduces the scalar serial references
    /// bit for bit; one mixing `avx2` and `avx512` workers computes at two
    /// speeds and returns a homogeneous fleet's bits, as the two kernels
    /// agree bit for bit.
    ///
    /// # Panics
    /// If `kernels` does not name one kernel per platform worker.
    pub fn with_kernels(
        platform: &Platform,
        time_scale: f64,
        mode: TransportMode,
        kernels: &[&'static Kernel],
    ) -> Self {
        assert_eq!(kernels.len(), platform.len(), "one kernel per worker");
        let inner = Session::spawn_with_transport(platform, time_scale, mode, |id, params| {
            program(params.m, kernels[id.index()])
        });
        Self::over(inner)
    }

    /// Wrap a spawned/accepted fleet.
    fn over(inner: Session) -> Self {
        RuntimeSession { inner, reserved: Mutex::new(Vec::new()), released: Condvar::new() }
    }

    /// A session whose workers are **remote processes** (`mwp-worker`
    /// binaries, typically): accepts one enrollment per platform worker
    /// from `listener` and answers each with its link/memory parameters,
    /// under the deployment's `config` (secret, liveness, run budget — see
    /// [`Session::accept_remote`]). Runs, their meters, and shutdown behave
    /// exactly as on a local session — results are bit-identical because
    /// the remote workers execute the same Algorithm 2 program against the
    /// same frames.
    pub fn accept_remote(
        platform: &Platform,
        time_scale: f64,
        listener: &TransportListener,
        config: &Config,
    ) -> std::io::Result<Self> {
        Session::accept_remote(platform, time_scale, listener, config).map(Self::over)
    }

    /// Fingerprint bytes each worker presented at enrollment (empty per
    /// worker on the channel transport; remote workers send a
    /// self-description the master can log).
    pub fn worker_fingerprints(&self) -> &[Vec<u8>] {
        self.inner.worker_fingerprints()
    }

    /// The current fleet as a platform description — `None` after every
    /// worker was pruned (runs then return [`RuntimeError::EmptyFleet`]
    /// until an [`RuntimeSession::admit`] repopulates the fleet).
    pub fn platform(&self) -> Option<&Platform> {
        self.inner.platform()
    }

    /// The fleet's membership epoch (see [`Session::epoch`]): bumped on
    /// every `admit` / non-empty `prune_dead`, so a dialer presenting an
    /// earlier one is refused at the door.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// Number of pooled workers.
    pub fn workers(&self) -> usize {
        self.inner.workers()
    }

    /// `C ← C + A·B` with HoLM (resource selection + round-robin chunk
    /// distribution) on the pooled workers. Concurrent callers overlap
    /// their runs as far as the workers' memory admits them (see the
    /// module docs).
    pub fn run_holm(
        &self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        c: BlockMatrix,
    ) -> Result<RunOutcome, RuntimeError> {
        self.run_solo(a, b, c, true)
    }

    /// `C ← C + A·B` enrolling every pooled worker (the ORROML variant).
    pub fn run_all_workers(
        &self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        c: BlockMatrix,
    ) -> Result<RunOutcome, RuntimeError> {
        self.run_solo(a, b, c, false)
    }

    /// One run of block side `q` whose slot `n` holds chunks of side
    /// `sides[n]`. The memory ledger places and admits it (see the module
    /// docs); `ops` then lays the run's port ops out over the placed
    /// workers — one per slot, ascending — and the master executor walks
    /// them through the [`Port`] `open` builds for the run's generation
    /// and workers. Every run of this fleet opens here: the `run_*`
    /// methods' and, from outside this crate, LU's factorization.
    pub fn execute<'s, P: Port>(
        &'s self,
        sides: &[usize],
        q: usize,
        ops: impl FnOnce(&[WorkerId]) -> Vec<P::Op>,
        open: impl FnOnce(&'s MasterEndpoint, u32, &[WorkerId]) -> P,
    ) -> (P, Result<u32, RuntimeError>) {
        let reservation = self.reserve(sides);
        let workers = &reservation.workers;
        execute(&self.inner, workers, q, ops(workers), |master, gen| open(master, gen, workers))
    }

    /// Place a run with chunks of side `sides[slot]` and reserve them —
    /// each takes its layout's `µ² + 4µ` blocks of its worker's memory
    /// `m` — in one step under the ledger's lock, parking while they do
    /// not fit beside every open run's and some run is open; held until
    /// the returned reservation drops. The placement is the module docs':
    /// an interchangeable run takes the live workers holding the fewest
    /// blocks (a dead one only when too few live), any other run slot `i`
    /// on worker `i`.
    pub(crate) fn reserve(&self, sides: &[usize]) -> Reservation<'_> {
        let blocks: Vec<usize> =
            sides.iter().map(|&side| MemoryLayout::MaxReuseOverlapped.buffers_used(side)).collect();
        let fleet = self.platform().map_or(&[][..], Platform::workers);
        let interchangeable =
            self.platform().is_some_and(Platform::is_homogeneous) && blocks.len() < fleet.len();
        let slots = blocks.len().max(fleet.len());
        let mut reserved = self.ledger();
        if reserved.len() < slots {
            reserved.resize(slots, 0);
        }
        loop {
            let mut workers: Vec<WorkerId> = (0..slots).map(WorkerId).collect();
            if interchangeable {
                // Live first, then the least held; the sort is stable, so a
                // tie keeps the lower id first.
                workers.sort_by_key(|&w| (self.inner.master().is_dead(w), reserved[w.index()]));
            }
            workers.truncate(blocks.len());
            workers.sort_unstable();
            let fits = workers.iter().zip(&blocks).all(|(w, b)| {
                fleet.get(w.index()).is_none_or(|params| reserved[w.index()] + b <= params.m)
            });
            if fits || reserved.iter().all(|&held| held == 0) {
                workers.iter().zip(&blocks).for_each(|(w, b)| reserved[w.index()] += b);
                return Reservation { session: self, workers, blocks };
            }
            reserved = self.released.wait(reserved).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The ledger. Its updates cannot panic halfway, so a poisoned lock
    /// still holds true counts.
    fn ledger(&self) -> MutexGuard<'_, Vec<usize>> {
        self.reserved.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One product as a run of its own: Algorithm 1 over the job list of
    /// length one.
    fn run_solo(
        &self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        c: BlockMatrix,
        select: bool,
    ) -> Result<RunOutcome, RuntimeError> {
        let platform = self.platform().ok_or(RuntimeError::EmptyFleet)?;
        let (enrolled, mu) = plan_holm(platform, a, b, &c, select)?;
        let (_, mut outcomes) = holm_on(self, vec![(a, b, c)], enrolled, mu)?;
        Ok(outcomes.pop().expect("one outcome per job"))
    }

    /// `C ← C + A·B` with the heterogeneous two-phase scheme of
    /// Section 6.2 on the pooled workers.
    pub fn run_heterogeneous(
        &self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        c: BlockMatrix,
        rule: SelectionRule,
    ) -> Result<RunOutcome, RuntimeError> {
        heterogeneous_on(self, a, b, c, rule)
    }

    /// Accept and enroll one more remote worker from `listener` between
    /// runs, growing both the fleet and this session's platform by one
    /// slot (see [`Session::admit`]): the next run plans over the
    /// newcomer. Admitting into an emptied fleet revives it.
    pub fn admit(
        &mut self,
        listener: &TransportListener,
        params: mwp_platform::WorkerParams,
    ) -> std::io::Result<mwp_platform::WorkerId> {
        self.inner.admit(listener, params)
    }

    /// Drop every worker declared dead, compacting the fleet and the
    /// platform in lockstep (see [`Session::prune_dead`]): the next run
    /// plans over the survivors. Returns how many were removed. Pruning
    /// the **whole** fleet leaves the session alive but empty: runs return
    /// [`RuntimeError::EmptyFleet`] until an `admit` repopulates it.
    pub fn prune_dead(&mut self) -> usize {
        self.inner.prune_dead().len()
    }

    /// Set or lift (`None`) the whole-run budget of the runs that follow
    /// (see [`Session::set_run_deadline`]): a run that outlasts it returns
    /// [`RuntimeError::RunAborted`] and leaves the session serving.
    pub fn set_run_deadline(&mut self, budget: Option<std::time::Duration>) {
        self.inner.set_run_deadline(budget);
    }

    /// How many enrolled workers are currently flagged dead.
    pub fn dead_workers(&self) -> usize {
        self.inner.dead_workers()
    }

    /// Orderly shutdown: wakes every parked worker with a shutdown frame
    /// and joins its thread. Returns the number of workers joined.
    /// Dropping the session without calling this does the same, silently.
    pub fn shutdown(self) -> usize {
        self.inner.shutdown()
    }

    /// How many previous-generation data frames the master's links have
    /// structurally rejected (see [`mwp_msg::link::MasterSide::stale_rejected`]) —
    /// observably non-zero when a stale frame from an earlier run (e.g. a
    /// replay fault) reached a link after its run ended.
    pub fn stale_rejections(&self) -> u64 {
        self.inner.stale_rejections()
    }
}

/// The one-shot entry points' shape: run `f` on a throwaway session for
/// `platform`, then shut it down explicitly so a worker panic propagates
/// to the caller instead of being swallowed by `Drop`.
pub(crate) fn with_session<R>(
    platform: &Platform,
    time_scale: f64,
    f: impl FnOnce(&RuntimeSession) -> R,
) -> R {
    let session = RuntimeSession::new(platform, time_scale);
    let out = f(&session);
    session.shutdown();
    out
}

#[cfg(test)]
impl RuntimeSession {
    /// The message-layer session under this one, for tests that open a
    /// run by hand.
    pub(crate) fn fleet(&self) -> &Session {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mwp_blockmat::fill::random_matrix;
    use mwp_blockmat::gemm::{gemm_serial, verify_product};
    use mwp_msg::session::{RunExit, RUN_ABORT, RUN_END};
    use mwp_msg::{Frame, FrameKind, Tag, WorkerEndpoint};
    use mwp_platform::WorkerId;

    #[test]
    fn session_survives_runs_with_different_block_sides() {
        // The in-place state reset must handle q changing between runs of
        // the same pooled workers (scratch blocks are size-bound to q).
        let platform = Platform::homogeneous(3, 4.0, 1.0, 60).unwrap();
        let session = RuntimeSession::new(&platform, 0.0);
        for (round, q) in [(0usize, 8usize), (1, 8), (2, 5), (3, 16), (4, 5)] {
            let a = random_matrix(4, 3, q, 500 + round as u64);
            let b = random_matrix(3, 6, q, 600 + round as u64);
            let c0 = random_matrix(4, 6, q, 700 + round as u64);
            let out = session.run_holm(&a, &b, c0.clone()).unwrap();
            verify_product(&out.c, &c0, &a, &b, 1e-9)
                .unwrap_or_else(|e| panic!("round {round} (q = {q}): off by {e}"));
        }
        assert_eq!(session.shutdown(), 3);
    }

    #[test]
    fn session_reports_per_run_traffic() {
        // blocks_moved must be the run's own volume, not the session's
        // accumulated counters.
        let platform = Platform::homogeneous(2, 4.0, 1.0, 60).unwrap();
        let session = RuntimeSession::new(&platform, 0.0);
        let q = 4;
        let a = random_matrix(3, 3, q, 1);
        let b = random_matrix(3, 3, q, 2);
        let c0 = random_matrix(3, 3, q, 3);
        let first = session.run_holm(&a, &b, c0.clone()).unwrap();
        let second = session.run_holm(&a, &b, c0).unwrap();
        assert_eq!(first.blocks_moved, second.blocks_moved);
    }

    #[test]
    fn alternating_shapes_enroll_what_each_shape_needs() {
        // The serving mix alternates shapes, and each run plans its own:
        // a 1 × 1 grid enrolls one worker, a 12 × 12 grid both.
        let platform = Platform::homogeneous(2, 1.0, 1.0, 60).unwrap();
        let session = RuntimeSession::new(&platform, 0.0);
        for round in 0..4 {
            for (side, enrolled) in [(1, 1), (12, 2)] {
                let (a, b) = (random_matrix(side, 1, 2, round), random_matrix(1, side, 2, round + 10));
                let c0 = random_matrix(side, side, 2, round + 20);
                let out = session.run_holm(&a, &b, c0).unwrap();
                assert_eq!(out.workers_used, enrolled);
            }
        }
        assert_eq!(session.shutdown(), 2);
    }

    #[test]
    fn validation_errors_do_not_poison_the_session() {
        let platform = Platform::homogeneous(2, 4.0, 1.0, 60).unwrap();
        let session = RuntimeSession::new(&platform, 0.0);
        let a = random_matrix(2, 3, 4, 1);
        let bad_b = random_matrix(2, 2, 4, 2); // wrong inner dimension
        let c0 = random_matrix(2, 2, 4, 3);
        assert_eq!(
            session.run_holm(&a, &bad_b, c0.clone()).unwrap_err(),
            RuntimeError::ShapeMismatch
        );
        // The pool is untouched (no run ever began): a good run still works.
        let b = random_matrix(3, 2, 4, 2);
        let c0 = random_matrix(2, 2, 4, 3);
        let out = session.run_holm(&a, &b, c0.clone()).unwrap();
        assert!(verify_product(&out.c, &c0, &a, &b, 1e-9).is_ok());
        assert_eq!(session.shutdown(), 2);
    }

    /// What a rogue worker answers a collect request with, given the C-row
    /// frames of the chunk it was shipped.
    type RogueReply = fn(&[Frame]) -> Vec<(Tag, Bytes)>;

    /// Honest and rogue workers of one session share a program type.
    type Program = Box<dyn FnMut(u32, &WorkerEndpoint) -> RunExit + Send>;

    /// A worker program that swallows its chunk and answers the collect
    /// request with `reply`'s frames instead of the chunk's rows.
    fn rogue_program(reply: RogueReply) -> Program {
        Box::new(move |_q, ep| {
            let mut shipped = Vec::new();
            loop {
                let Ok(frame) = ep.recv() else { return RunExit::Terminate };
                match frame.tag.kind {
                    FrameKind::Shutdown => return RunExit::Terminate,
                    FrameKind::Control if frame.tag.i == RUN_END || frame.tag.i == RUN_ABORT => {
                        return RunExit::Completed
                    }
                    FrameKind::Control => {
                        for (tag, payload) in reply(&shipped) {
                            ep.send_in(frame.run, Frame::new(tag, payload));
                        }
                        shipped.clear();
                    }
                    FrameKind::BlockC => shipped.push(frame),
                    _ => {}
                }
            }
        })
    }

    /// A channel-transport fleet for `platform` whose workers picked by
    /// `rogue` run [`rogue_program`] with `reply`; the rest are honest.
    fn fleet_with_rogues(
        platform: &Platform,
        rogue: impl Fn(WorkerId) -> bool,
        reply: RogueReply,
    ) -> RuntimeSession {
        RuntimeSession::over(Session::spawn_with_transport(
            platform,
            0.0,
            TransportMode::Channel,
            |id, params| {
                if rogue(id) {
                    return rogue_program(reply);
                }
                Box::new(program(params.m, kernel::active()))
            },
        ))
    }

    /// A row one `f64` short of the chunk row it answers for.
    const SHORT_ROW: RogueReply = |rows| {
        let c = &rows[0];
        let tag = Tag::new(FrameKind::CResult, c.tag.i as usize, c.tag.j as usize);
        vec![(tag, c.payload.slice(..c.payload.len() - 8))]
    };

    #[test]
    fn rogue_collect_replies_condemn_the_worker_not_the_master() {
        // Worker-supplied tags and lengths must be checked before they
        // index anything: each rogue reply costs worker 1 its link, the
        // chunk is re-dispatched, and the survivors' result is exact.
        let replies: [(&str, RogueReply); 4] = [
            ("out-of-range row", |rows| {
                let tag = Tag::new(FrameKind::CResult, rows[0].tag.i as usize + 10_000, rows[0].tag.j as usize);
                vec![(tag, rows[0].payload.clone())]
            }),
            ("short payload", SHORT_ROW),
            ("repeated row", |rows| {
                let tag = Tag::new(FrameKind::CResult, rows[0].tag.i as usize, rows[0].tag.j as usize);
                vec![(tag, rows[0].payload.clone()), (tag, rows[0].payload.clone())]
            }),
            // Every row, each under its own tag, but last first: the rows
            // of a chunk come back in order or not at all.
            ("rows out of order", |rows| {
                let tag = |c: &Frame| Tag::new(FrameKind::CResult, c.tag.i as usize, c.tag.j as usize);
                rows.iter().rev().map(|c| (tag(c), c.payload.clone())).collect()
            }),
        ];
        let platform = Platform::homogeneous(3, 4.0, 1.0, 60).unwrap();
        let q = 4;
        let a = random_matrix(7, 3, q, 81);
        let b = random_matrix(3, 13, q, 82);
        let c0 = random_matrix(7, 13, q, 83);
        let mut serial = c0.clone();
        gemm_serial(&mut serial, &a, &b);
        for (what, reply) in replies {
            let session = fleet_with_rogues(&platform, |id| id == WorkerId(1), reply);
            let out = session.run_all_workers(&a, &b, c0.clone()).unwrap();
            assert_eq!(out.c.max_abs_diff(&serial), 0.0, "{what}: survivors' result");
            assert_eq!(session.dead_workers(), 1, "{what}: only the rogue is condemned");
            assert_eq!(session.shutdown(), 3, "{what}");
        }
    }

    #[test]
    fn a_lost_chunk_is_split_to_fit_a_smaller_adopter() {
        // Table 2's platform, µ = (6, 18, 10): the worker with the most
        // memory is the rogue, so every chunk the two-phase schedule gave
        // it — up to 18 × 18 — is lost and must be cut down to the
        // survivors' 6 × 6 and 10 × 10 before they can adopt it (their
        // memory assertions, re-raised by `shutdown`, check that it was).
        let platform = Platform::new(vec![
            mwp_platform::WorkerParams::new(2.0, 2.0, 60),
            mwp_platform::WorkerParams::new(3.0, 3.0, 396),
            mwp_platform::WorkerParams::new(5.0, 1.0, 140),
        ])
        .unwrap();
        let q = 4;
        let a = random_matrix(20, 3, q, 84);
        let b = random_matrix(3, 25, q, 85);
        let c0 = random_matrix(20, 25, q, 86);
        let mut serial = c0.clone();
        gemm_serial(&mut serial, &a, &b);
        let session = fleet_with_rogues(&platform, |id| id == WorkerId(1), SHORT_ROW);
        let out = session.run_heterogeneous(&a, &b, c0, SelectionRule::Global).unwrap();
        assert_eq!(out.c.max_abs_diff(&serial), 0.0);
        assert_eq!(session.dead_workers(), 1);
        assert_eq!(session.shutdown(), 3);
    }

    #[test]
    fn losing_the_whole_fleet_is_an_error_not_a_panic() {
        // Every worker answers its collect with a short row, so the run
        // condemns them one by one until no survivor can adopt the lost
        // chunks: the master aborts the run and reports the empty fleet.
        let platform = Platform::homogeneous(3, 4.0, 1.0, 60).unwrap();
        let rogue_fleet = || fleet_with_rogues(&platform, |_| true, SHORT_ROW);
        let q = 4;
        let a = random_matrix(7, 3, q, 81);
        let b = random_matrix(3, 13, q, 82);
        let c0 = random_matrix(7, 13, q, 83);

        let session = rogue_fleet();
        let lost = session.run_all_workers(&a, &b, c0.clone()).unwrap_err();
        assert_eq!(lost, RuntimeError::EmptyFleet);
        assert_eq!(session.dead_workers(), 3);
        let rule = SelectionRule::Global;
        assert_eq!(session.run_heterogeneous(&a, &b, c0.clone(), rule).unwrap_err(), lost);
        assert_eq!(session.shutdown(), 3);

        // Behind the serving tier the failed dispatch must give its
        // admission footprint back: a panicking dispatcher would keep it
        // reserved and park every later job forever.
        let server = crate::serving::MatrixServer::with_options(rogue_fleet(), 2, true);
        let job = crate::serving::JobSpec { a, b, c: c0, select: false };
        let handles = [server.submit(job.clone()), server.submit(job)];
        for handle in handles {
            assert_eq!(handle.wait().result.unwrap_err(), lost);
        }
        assert_eq!(server.dead_workers(), 3);
        server.shutdown();
    }

    /// `run` on a thread of its own; panics if it has not returned within
    /// a minute — a run parked on a leaked reservation never does, and its
    /// thread is then left behind.
    fn within_a_minute<R: Send + 'static>(run: impl FnOnce() -> R + Send + 'static) -> R {
        let (done, result) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || done.send(run()).expect("the test waits for the result"));
        let out = result.recv_timeout(std::time::Duration::from_secs(60)).expect("the run did not return within a minute");
        runner.join().expect("the run's thread");
        out
    }

    #[test]
    fn a_failed_run_gives_its_memory_back() {
        // µ = 6 fills the whole memory (µ² + 4µ = 60 = m), so a run that
        // kept its reservation past its end would park every run that
        // fills a worker. Worker 0 answers its collect with a short row: a
        // 6 × 6 product enrolls it alone and ends in `EmptyFleet`; a 1 ns
        // budget ends the next run in `RunAborted`. After each, a run
        // filling both workers is admitted, and worker 1 adopts the chunk
        // of condemned worker 0.
        let platform = Platform::homogeneous(2, 4.0, 1.0, 60).unwrap();
        let session = fleet_with_rogues(&platform, |id| id == WorkerId(0), SHORT_ROW);
        let q = 4;
        let (a, b, c0) = (random_matrix(6, 3, q, 94), random_matrix(3, 12, q, 95), random_matrix(6, 12, q, 96));
        let mut serial = c0.clone();
        gemm_serial(&mut serial, &a, &b);
        let fill = |session: RuntimeSession| {
            let (a, b, c0) = (a.clone(), b.clone(), c0.clone());
            within_a_minute(move || {
                let out = session.run_all_workers(&a, &b, c0);
                (session, out)
            })
        };
        let lone = session.run_holm(&a, &random_matrix(3, 6, q, 97), random_matrix(6, 6, q, 98));
        assert_eq!(lone.unwrap_err(), RuntimeError::EmptyFleet);
        let (mut session, out) = fill(session);
        assert_eq!(out.unwrap().c.max_abs_diff(&serial), 0.0, "after EmptyFleet");

        session.set_run_deadline(Some(std::time::Duration::from_nanos(1)));
        assert_eq!(session.run_all_workers(&a, &b, c0.clone()).unwrap_err(), RuntimeError::RunAborted);
        session.set_run_deadline(None);
        let (session, out) = fill(session);
        assert_eq!(out.unwrap().c.max_abs_diff(&serial), 0.0, "after RunAborted");
        assert_eq!(session.dead_workers(), 1);
        assert_eq!(session.shutdown(), 2);
    }

    #[test]
    fn a_dead_worker_leaves_one_worker_runs_to_the_live_one() {
        // Worker 0 answers its collect with a short row. On the idle fleet
        // a one-worker run goes to worker 0, which condemns it and ends in
        // `EmptyFleet`; the ledger places the next one-worker run on live
        // worker 1, where it completes.
        let platform = Platform::homogeneous(2, 4.0, 1.0, 60).unwrap();
        let session = fleet_with_rogues(&platform, |id| id == WorkerId(0), SHORT_ROW);
        let q = 4;
        let (a, b, c0) = (random_matrix(6, 3, q, 94), random_matrix(3, 6, q, 95), random_matrix(6, 6, q, 96));
        let mut serial = c0.clone();
        gemm_serial(&mut serial, &a, &b);
        assert_eq!(session.run_holm(&a, &b, c0.clone()).unwrap_err(), RuntimeError::EmptyFleet);
        let out = session.run_holm(&a, &b, c0).unwrap();
        assert_eq!(out.workers_used, 1);
        assert_eq!(out.c.max_abs_diff(&serial), 0.0);
        assert_eq!(session.dead_workers(), 1);
        assert_eq!(session.shutdown(), 2);
    }

    #[test]
    fn concurrent_run_holm_callers_take_turns() {
        // µ = 6 fills the whole memory (µ² + 4µ = 60 = m): two overlapping
        // runs on one worker would trip its memory assertion, which
        // `shutdown` would re-raise here. Paced links make every send hold
        // the FIFO port for a while, so unserialized callers would
        // alternate frame by frame and both chunks would be resident.
        let platform = Platform::homogeneous(2, 4.0, 1.0, 60).unwrap();
        let session = RuntimeSession::new(&platform, 1e-5);
        let jobs: Vec<_> = (0..2u64)
            .map(|j| {
                let (a, b) = (random_matrix(6, 5, 8, 900 + j), random_matrix(5, 12, 8, 910 + j));
                let c0 = random_matrix(6, 12, 8, 920 + j);
                let solo = session.run_holm(&a, &b, c0.clone()).unwrap().c;
                (a, b, c0, solo)
            })
            .collect();
        let start = std::sync::Barrier::new(jobs.len());
        std::thread::scope(|scope| {
            for (a, b, c0, solo) in &jobs {
                let (session, start) = (&session, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..2 {
                        let out = session.run_holm(a, b, c0.clone()).unwrap();
                        assert_eq!(out.c.max_abs_diff(solo), 0.0, "concurrent vs solo");
                    }
                });
            }
        });
        assert_eq!(session.shutdown(), 2);
    }
}
