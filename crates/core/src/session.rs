//! Persistent matrix-product sessions: the worker pool behind the
//! threaded runtime.
//!
//! A [`RuntimeSession`] spawns the star's worker threads **once** for a
//! platform description and then serves any number of HoLM / ORROML /
//! heterogeneous runs, each delimited by the message layer's
//! `RUN_BEGIN`/`RUN_END` frames (see [`mwp_msg::session`]). Worker state
//! — recycled scratch blocks, chunk storage, payload buffer pools, and
//! the resident-B pack buffers ([`mwp_blockmat::kernel::PackedB`], which
//! are shape-agnostic and stay warm even when `q` changes between runs)
//! — resets in place between runs, so a repeated-run workload pays the
//! thread spawn/join and allocation warm-up cost exactly once:
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
//! master and worker code: every `run_*` method plans (resource selection,
//! cached per fleet epoch), generates the run's [`crate::schedule::Schedule`]
//! and hands it to the one master executor in [`crate::runtime`].
//!
//! The fleet itself — links, fingerprints, and the platform description
//! that `admit` grows and `prune_dead` compacts — lives in the wrapped
//! [`mwp_msg::session::Session`]; this type adds the plans and the run
//! lock.

use crate::runtime::{
    heterogeneous_mu, heterogeneous_on, holm_on, select_enrollment, serve_run,
    validate_product_shapes, RunOutcome, RuntimeError, WorkerState,
};
use crate::selection::incremental::SelectionRule;
use mwp_blockmat::BlockMatrix;
use mwp_msg::config::Config;
use mwp_msg::session::Session;
use mwp_msg::transport::SERVICE_MATRIX;
use mwp_msg::{TransportListener, TransportMode, WorkerEndpoint};
use mwp_platform::{Platform, WorkerId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The inputs a cached resource selection was computed for. A plan is
/// reusable only while **both** the fleet generation (the session's
/// membership epoch) and the run shape match; any `admit`/`prune_dead`
/// bumps the epoch and thereby forces a fresh selection before the next
/// run — the paper's algorithms re-run against the fleet that actually
/// exists, never a stale enrollment.
#[derive(Clone, Copy, PartialEq, Eq)]
struct PlanKey {
    epoch: u64,
    r: usize,
    s: usize,
    select: bool,
}

/// A remembered HoLM/ORROML resource selection.
struct HolmPlan {
    enrolled: usize,
    mu: usize,
    /// The enrolled sub-platform, re-derived through [`Platform::select`]
    /// — the placement the cost model chose, materialized.
    placement: Platform,
}

/// A persistent worker pool serving the paper's matrix-product runtimes.
pub struct RuntimeSession {
    inner: Session,
    /// Last HoLM/ORROML resource selection, keyed by fleet epoch + shape.
    holm_plan: Mutex<Option<(PlanKey, HolmPlan)>>,
    /// Last heterogeneous per-worker chunk sides, keyed by fleet epoch.
    het_plan: Mutex<Option<(u64, Vec<usize>)>>,
    /// How many fresh resource selections this session has computed —
    /// observably counts automatic re-planning after membership changes.
    replans: AtomicU64,
    /// Held by each public `run_*` call for its whole run: nothing bounds
    /// the workers' resident memory across two of *these* runs (the
    /// serving tier, which calls the master executor directly, admits by
    /// memory instead), so concurrent callers take turns.
    run_lock: Mutex<()>,
}

impl RuntimeSession {
    /// Spawn the pool: one parked worker thread per platform worker, each
    /// holding its scratch state (and its endpoint's payload buffer pool)
    /// across runs. `time_scale` paces the links (0 = off), exactly as in
    /// the one-shot entry points. The frames travel over in-process
    /// channels.
    pub fn new(platform: &Platform, time_scale: f64) -> Self {
        Self::with_transport(platform, time_scale, TransportMode::Channel)
    }

    /// [`RuntimeSession::new`] with an explicit transport (loopback
    /// TCP/Unix sockets: same workers, same programs) — how tests
    /// cross-validate the channel and socket backends bit-for-bit inside
    /// one process.
    pub fn with_transport(platform: &Platform, time_scale: f64, mode: TransportMode) -> Self {
        let inner = Session::spawn_with_transport(platform, time_scale, mode, |_, params| {
            let memory_cap = params.m;
            let mut state = WorkerState::new();
            move |q: u32, ep: &WorkerEndpoint| serve_run(ep, q as usize, memory_cap, &mut state)
        });
        Self::over(inner)
    }

    /// Wrap a spawned/accepted fleet with fresh (empty) plan state.
    fn over(inner: Session) -> Self {
        RuntimeSession {
            inner,
            holm_plan: Mutex::new(None),
            het_plan: Mutex::new(None),
            replans: AtomicU64::new(0),
            run_lock: Mutex::new(()),
        }
    }

    /// A session whose workers are **remote processes** (`mwp-worker`
    /// binaries, typically): accepts one enrollment per platform worker
    /// from `listener` and answers each with its link/memory parameters
    /// and the matrix-product service id, under the deployment's `config`
    /// (secret, liveness, run budget — see [`Session::accept_remote`]).
    /// Runs, statistics, and shutdown
    /// behave exactly as on a local session — results are bit-identical
    /// because the remote workers execute the same Algorithm 2 program
    /// against the same frames.
    pub fn accept_remote(
        platform: &Platform,
        time_scale: f64,
        listener: &TransportListener,
        config: &Config,
    ) -> std::io::Result<Self> {
        Session::accept_remote(platform, time_scale, listener, SERVICE_MATRIX, config)
            .map(Self::over)
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
    /// every `admit` / non-empty `prune_dead`, and the key that
    /// invalidates cached resource selections.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// How many fresh resource selections this session has computed. A
    /// membership change followed by a run must raise this — the run
    /// planned against the new fleet, not a stale enrollment.
    pub fn replans(&self) -> u64 {
        self.replans.load(Ordering::Relaxed)
    }

    /// The enrolled sub-platform the last HoLM/ORROML selection chose
    /// (via [`Platform::select`]), if any run has planned yet.
    pub fn placement(&self) -> Option<Platform> {
        self.holm_plan.lock().unwrap().as_ref().map(|(_, plan)| plan.placement.clone())
    }

    /// Resource selection for a HoLM/ORROML run of shape `r × s`, cached
    /// per (fleet epoch, shape): re-planned automatically after any
    /// membership change, reused otherwise. Returns `(enrolled, µ)`.
    pub(crate) fn plan_holm_run(
        &self,
        r: usize,
        s: usize,
        select: bool,
    ) -> Result<(usize, usize), RuntimeError> {
        let platform = self.platform().ok_or(RuntimeError::EmptyFleet)?;
        let key = PlanKey { epoch: self.inner.epoch(), r, s, select };
        let mut cache = self.holm_plan.lock().unwrap();
        if let Some((k, plan)) = cache.as_ref() {
            if *k == key {
                return Ok((plan.enrolled, plan.mu));
            }
        }
        let (enrolled, mu) = select_enrollment(platform, r, s, select)?;
        let placement = platform
            .select(&(0..enrolled).map(WorkerId).collect::<Vec<_>>())
            .expect("resource selection enrolls at least one worker");
        self.replans.fetch_add(1, Ordering::Relaxed);
        *cache = Some((key, HolmPlan { enrolled, mu, placement }));
        Ok((enrolled, mu))
    }

    /// Per-worker chunk sides for a heterogeneous run, cached per fleet
    /// epoch (they depend only on the workers' memory capacities).
    pub(crate) fn plan_heterogeneous_run(&self) -> Result<Vec<usize>, RuntimeError> {
        let platform = self.platform().ok_or(RuntimeError::EmptyFleet)?;
        let epoch = self.inner.epoch();
        let mut cache = self.het_plan.lock().unwrap();
        if let Some((e, mu)) = cache.as_ref() {
            if *e == epoch {
                return Ok(mu.clone());
            }
        }
        let mu = heterogeneous_mu(platform)?;
        self.replans.fetch_add(1, Ordering::Relaxed);
        *cache = Some((epoch, mu.clone()));
        Ok(mu)
    }

    /// Number of pooled workers.
    pub fn workers(&self) -> usize {
        self.inner.workers()
    }

    /// `C ← C + A·B` with HoLM (resource selection + round-robin chunk
    /// distribution) on the pooled workers. Concurrent callers of the
    /// `run_*` methods serialize: a session runs one of them at a time.
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

    /// Take the run lock. It guards no data, so a run that panicked while
    /// holding it leaves nothing to distrust: the poison is ignored.
    fn exclusive(&self) -> std::sync::MutexGuard<'_, ()> {
        self.run_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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
        validate_product_shapes(a, b, &c)?;
        let (enrolled, mu) = self.plan_holm_run(a.rows(), b.cols(), select)?;
        let _exclusive = self.exclusive();
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
        let _exclusive = self.exclusive();
        heterogeneous_on(self, a, b, c, rule)
    }

    /// Accept and enroll one more remote worker from `listener` between
    /// runs, growing both the fleet and this session's platform by one
    /// slot (see [`Session::admit`] — the membership epoch advances, so
    /// the next run's resource selection re-plans over the newcomer
    /// automatically). Admitting into an emptied fleet revives it.
    pub fn admit(
        &mut self,
        listener: &TransportListener,
        params: mwp_platform::WorkerParams,
    ) -> std::io::Result<mwp_platform::WorkerId> {
        self.inner.admit(listener, params, SERVICE_MATRIX)
    }

    /// Drop every worker declared dead, compacting the fleet and the
    /// platform in lockstep (see [`Session::prune_dead`] — a non-empty
    /// prune advances the membership epoch, forcing a re-plan before the
    /// next run). Returns how many were removed. Pruning the **whole**
    /// fleet leaves the session alive but empty: runs return
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

    /// The message-layer session under this one: what the master
    /// executor opens its run on.
    pub(crate) fn fleet(&self) -> &Session {
        &self.inner
    }

    /// How many previous-generation data frames the master's links have
    /// structurally rejected (see [`mwp_msg::stats::LinkSnapshot`]) —
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
mod tests {
    use super::*;
    use bytes::Bytes;
    use mwp_blockmat::fill::random_matrix;
    use mwp_blockmat::gemm::{gemm_serial, verify_product};
    use mwp_msg::session::{RunExit, RUN_ABORT, RUN_END};
    use mwp_msg::{Frame, FrameKind, Tag};

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

    /// What a rogue worker answers a collect request with, given the first
    /// C-row frame of the chunk it was shipped.
    type RogueReply = fn(&Frame) -> Vec<(Tag, Bytes)>;

    /// Honest and rogue workers of one session share a program type.
    type Program = Box<dyn FnMut(u32, &WorkerEndpoint) -> RunExit + Send>;

    /// A worker program that swallows its chunk and answers the collect
    /// request with `reply`'s frames instead of the chunk's rows.
    fn rogue_program(reply: RogueReply) -> Program {
        Box::new(move |_q, ep| {
            let mut first_c_row = None;
            loop {
                let Ok(frame) = ep.recv() else { return RunExit::Terminate };
                match frame.tag.kind {
                    FrameKind::Shutdown => return RunExit::Terminate,
                    FrameKind::Control if frame.tag.i == RUN_END || frame.tag.i == RUN_ABORT => {
                        return RunExit::Completed
                    }
                    FrameKind::Control => {
                        let shipped = first_c_row.take().expect("C rows precede the collect");
                        for (tag, payload) in reply(&shipped) {
                            ep.send_in(frame.run, Frame::new(tag, payload));
                        }
                    }
                    FrameKind::BlockC if first_c_row.is_none() => first_c_row = Some(frame),
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
                let mut state = WorkerState::new();
                let honest: Program =
                    Box::new(move |q, ep| serve_run(ep, q as usize, params.m, &mut state));
                honest
            },
        ))
    }

    /// A row one `f64` short of the chunk row it answers for.
    const SHORT_ROW: RogueReply = |c| {
        let tag = Tag::new(FrameKind::CResult, c.tag.i as usize, c.tag.j as usize);
        vec![(tag, c.payload.slice(..c.payload.len() - 8))]
    };

    #[test]
    fn rogue_collect_replies_condemn_the_worker_not_the_master() {
        // Worker-supplied tags and lengths must be checked before they
        // index anything: each rogue reply costs worker 1 its link, the
        // chunk is re-dispatched, and the survivors' result is exact.
        let replies: [(&str, RogueReply); 3] = [
            ("out-of-range row", |c| {
                let tag = Tag::new(FrameKind::CResult, c.tag.i as usize + 10_000, c.tag.j as usize);
                vec![(tag, c.payload.clone())]
            }),
            ("short payload", SHORT_ROW),
            ("repeated row", |c| {
                let tag = Tag::new(FrameKind::CResult, c.tag.i as usize, c.tag.j as usize);
                vec![(tag, c.payload.clone()), (tag, c.payload.clone())]
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
