//! Persistent worker-pool sessions.
//!
//! The runtimes historically spawned a fresh thread per worker on **every
//! call** and joined them all at the end — pure overhead once a workload
//! runs many back-to-back products (benches, parameter sweeps, the
//! experiment suite). A [`Session`] spawns the star's worker threads
//! **once**, parks each of them on its endpoint's blocking receive, and
//! serves an unbounded sequence of runs:
//!
//! * the master marks the start of a run by sending every enrolled worker
//!   a `RUN_BEGIN` control frame (carrying one `u32` run parameter, e.g.
//!   the block side `q`) stamped with the run's freshly drawn
//!   **generation**, which every later frame of the run carries too;
//! * the worker's *program* — a caller-supplied closure holding whatever
//!   per-worker state it wants to persist across runs (scratch blocks,
//!   buffer pools) — serves the run's frames until it sees the matching
//!   `RUN_END` control frame, then returns to the parked outer loop;
//! * a [`Frame::shutdown`] (or the master endpoint dropping) terminates
//!   the thread for good.
//!
//! Between runs a worker costs nothing: it is blocked in its endpoint's
//! blocking receive (condvar parking on a channel, a blocking read on a
//! socket), not polling.

use crate::config::Config;
use crate::endpoint::{MasterEndpoint, WorkerEndpoint};
use crate::frame::{Frame, FrameKind};
use crate::link::Pacing;
use crate::net::StarNetwork;
use crate::port::OnePort;
use crate::transport::{
    self, EnrollTerms, TransportListener, TransportMode, HANDSHAKE_TIMEOUT,
};
use mwp_platform::{Platform, WorkerId, WorkerParams};
use mwp_trace::{record, Activity, ActivityKind, Resource, SimTime};
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::Duration;

// The run-lifecycle sentinels and frame constructors live in
// [`crate::lifecycle`] — one documented module owns the `tag.i` magic
// values. Re-exported here because the session layer is where callers
// (the runtimes' worker programs) actually match on them.
pub use crate::lifecycle::{
    run_abort_frame, run_begin_frame, run_end_frame, RUN_ABORT, RUN_BEGIN, RUN_END,
};

/// How a worker program left a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The run ended with `RUN_END`; the worker parks for the next run.
    Completed,
    /// Shutdown (explicit frame or closed channel): the thread exits.
    Terminate,
}

/// Receipt for an open run (see [`Session::begin_run_on`]): the run is
/// identified purely by its generation — several may be in flight on one
/// session at once. Pass it back to [`Session::finish_run_on`] or
/// [`Session::abort_run_on`], with the run's workers, to retire the
/// generation.
#[must_use = "pass the epoch back to finish_run_on/abort_run_on to retire its generation"]
#[derive(Debug)]
pub struct RunEpoch {
    /// The generation this run stamps its frames with.
    run: u32,
    /// Trace time of the `RUN_BEGIN` (recorded only while tracing is on):
    /// `finish_run_on`/`abort_run_on` close the lifecycle span against it.
    begun: Option<SimTime>,
}

impl RunEpoch {
    /// The run generation every frame of this run must be stamped with,
    /// and the one its receives are scoped to.
    pub fn generation(&self) -> u32 {
        self.run
    }
}

/// Record the zero-length `RUN_BEGIN` lifecycle marker for generation
/// `run` and return its timestamp (`None` while tracing is off — the
/// off path is one atomic check).
fn trace_run_begin(run: u32) -> Option<SimTime> {
    if !record::enabled() {
        return None;
    }
    let t = record::now();
    record::record(
        Activity::new(
            Resource::Master,
            ActivityKind::Run,
            WorkerId(0),
            t,
            t,
            "RUN_BEGIN".into(),
        )
        .with_run(run),
    );
    Some(t)
}

/// Close a run-lifecycle span opened at `begun` with its outcome label
/// (`RUN_END` or `RUN_ABORT`), then flush the env sink — run boundaries
/// are where streamed trace files grow and the recorder's memory resets.
fn trace_run_close(run: u32, begun: Option<SimTime>, label: &'static str) {
    if let Some(begun) = begun {
        record::record(
            Activity::new(
                Resource::Master,
                ActivityKind::Run,
                WorkerId(0),
                begun,
                record::now(),
                label.into(),
            )
            .with_run(run),
        );
    }
    record::flush();
}

/// Workers `0..n`: the set the count forms of the run lifecycle name.
fn first(n: usize) -> Vec<WorkerId> {
    (0..n).map(WorkerId).collect()
}

/// A star network whose worker threads are spawned once and reused for an
/// unbounded sequence of runs, any number of them open at once.
pub struct Session {
    master: MasterEndpoint,
    handles: Vec<thread::JoinHandle<()>>,
    /// Socket-transport pump threads (empty on the channel transport),
    /// joined silently at teardown after the workers.
    pumps: Vec<thread::JoinHandle<()>>,
    /// Fingerprint bytes each enrolled connection presented (socket
    /// transports only; empty per worker on the channel transport).
    fingerprints: Vec<Vec<u8>>,
    /// The fleet's per-slot link/memory parameters, compacted and grown
    /// in lockstep with the links — `None` once every worker has been
    /// pruned (an empty fleet cannot be a [`Platform`]).
    platform: Option<Platform>,
    /// The pacing every link was attached with — kept so workers
    /// admitted later ([`Session::admit`]) join under identical terms.
    pacing: Pacing,
    /// The **membership epoch**: which generation of this fleet is
    /// current. Starts at 1 and is bumped by every membership change
    /// (`admit`, a non-empty `prune_dead`), stamped into each welcome,
    /// and checked at the door — a connection presenting a previous
    /// generation's epoch is stale (or a replay) and is rejected.
    epoch: u64,
    /// The configuration handed in at construction: its secret keys the
    /// enrollment MACs and its liveness times the links for this
    /// session's whole lifetime, later `admit`s included; its run budget
    /// is what [`Session::set_run_deadline`] changes.
    config: Config,
    /// The **run generation**: a per-session monotonically increasing
    /// counter, bumped by every [`Session::begin_run_on`]. The drawn value is
    /// registered at every link for the duration of its run, stamped into
    /// each of the run's frames, and checked on receive — a data frame
    /// of a generation no open run owns is structurally rejected,
    /// whoever sent it.
    run_gen: AtomicU32,
}

impl Session {
    /// Wire the star for `platform` and spawn one parked worker thread per
    /// platform worker. `factory` is called once per worker (on the
    /// calling thread) to build that worker's *program*: the closure that
    /// serves one run's frames and returns how it exited. State captured
    /// by the program persists across runs — that is the point.
    ///
    /// The star is wired over in-process channels;
    /// [`Session::spawn_with_transport`] picks TCP/Unix socket pairs
    /// instead — same worker threads, same programs, but every frame
    /// truly crosses the socket stack.
    pub fn spawn<F, P>(platform: &Platform, time_scale: f64, factory: F) -> Session
    where
        F: FnMut(WorkerId, WorkerParams) -> P,
        P: FnMut(u32, &WorkerEndpoint) -> RunExit + Send + 'static,
    {
        Self::spawn_with_transport(platform, time_scale, TransportMode::Channel, factory)
    }

    /// [`Session::spawn`] with an explicit [`TransportMode`] — how tests
    /// cross-validate the channel and socket backends against each other
    /// inside one process. Either way the fleet runs under
    /// [`Config::default`].
    pub fn spawn_with_transport<F, P>(
        platform: &Platform,
        time_scale: f64,
        mode: TransportMode,
        mut factory: F,
    ) -> Session
    where
        F: FnMut(WorkerId, WorkerParams) -> P,
        P: FnMut(u32, &WorkerEndpoint) -> RunExit + Send + 'static,
    {
        // One parked worker thread: obtain its endpoint, then serve runs.
        fn spawn_worker<P>(
            id: WorkerId,
            mut program: P,
            endpoint: impl FnOnce() -> WorkerEndpoint + Send + 'static,
        ) -> thread::JoinHandle<()>
        where
            P: FnMut(u32, &WorkerEndpoint) -> RunExit + Send + 'static,
        {
            #[allow(clippy::expect_used, reason = "a session cannot serve without its worker threads")]
            thread::Builder::new()
                .name(format!("mwp-worker-{}", id.index()))
                .spawn(move || serve_worker(endpoint(), &mut program))
                .expect("spawn session worker thread")
        }
        if mode == TransportMode::Channel {
            let (master, workers) = StarNetwork::build(platform, time_scale).into_endpoints();
            let handles = platform
                .iter()
                .zip(workers)
                .map(|((id, params), ep)| spawn_worker(id, factory(id, *params), move || ep))
                .collect();
            let fingerprints = vec![Vec::new(); platform.len()];
            return Session::new(
                master,
                handles,
                Vec::new(),
                fingerprints,
                platform,
                time_scale,
                Config::default(),
            );
        }
        // The in-process socket star: worker threads live in this process
        // (as on the channel transport, so panics still propagate through
        // `shutdown`), each wired to the master by a connected pair of its
        // own and enrolled over it — every frame of every run crosses a
        // real socket. No listener outlives this call, and slot `i` is the
        // `i`-th pair by construction.
        let mut masters = Vec::with_capacity(platform.len());
        let handles = platform
            .iter()
            .map(|(id, params)| {
                #[allow(clippy::expect_used, reason = "an in-process session cannot serve without its wired pairs")]
                let (master, worker) = transport::stream_pair(mode).expect("wire an in-process worker");
                masters.push(master);
                spawn_worker(id, factory(id, *params), move || {
                    let enrolled = transport::enroll_with(worker, b"", 0, &Config::default());
                    #[allow(clippy::expect_used, reason = "the master wired this pair and admits it with the same config")]
                    enrolled.expect("in-process enroll").0
                })
            })
            .collect();
        // A pair whose worker failed to enroll is dropped by `accept_star`,
        // which then runs out of pairs: this fails instead of hanging.
        let mut masters = masters.into_iter();
        let next = || masters.next().ok_or_else(|| io::Error::other("an in-process worker failed to enroll"));
        #[allow(clippy::expect_used, reason = "every pair was wired here and enrolls with the same config")]
        let mut session = Self::accept_star(next, platform, time_scale, HANDSHAKE_TIMEOUT, &Config::default())
            .expect("enroll the in-process workers");
        session.handles = handles;
        session
    }

    /// Build a session whose workers are **remote processes**: accept one
    /// connection per platform worker from `listener` (each a `mwp-worker`
    /// process, or any peer speaking the enrollment handshake), fill the
    /// slots in arrival order, and reply to each with its link/memory
    /// parameters. `config` is the deployment's: its secret and liveness
    /// terms are what every enrolling worker must have been started with
    /// too.
    ///
    /// The returned session is driven exactly like a local one: the
    /// one-port arbiter, pacing, and the stale count all live on this side.
    /// `shutdown` sends every remote worker a shutdown frame; an orderly
    /// worker process exits on it, which is what terminates the link's
    /// pump threads.
    pub fn accept_remote(
        platform: &Platform,
        time_scale: f64,
        listener: &TransportListener,
        config: &Config,
    ) -> io::Result<Session> {
        Self::accept_star(|| listener.accept(), platform, time_scale, HANDSHAKE_TIMEOUT, config)
    }

    /// Enroll the connections `next` hands out until every one of
    /// `platform.len()` slots is filled, in arrival order, wiring each
    /// into a [`transport::RemoteLink`]: the master-facing halves
    /// assemble into a [`MasterEndpoint`] indistinguishable from the
    /// channel transport's. `config` is checked ([`Config::check`]) and
    /// kept for the session's lifetime.
    ///
    /// A connection that fails enrollment — garbage instead of a hello,
    /// a wrong secret or a stale epoch, an oversized handshake frame, or
    /// a peer that simply goes silent (its handshake reads run under
    /// `handshake_timeout`) — is **dropped and the loop keeps taking
    /// connections**: on a network-reachable listener a stray port scan
    /// or held-open health probe must not abort or park the star's
    /// startup. Only an error from `next` itself aborts.
    fn accept_star(
        mut next: impl FnMut() -> io::Result<Box<dyn transport::FrameStream>>,
        platform: &Platform,
        time_scale: f64,
        handshake_timeout: Duration,
        config: &Config,
    ) -> io::Result<Session> {
        config.check().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let terms = EnrollTerms {
            config,
            epoch: 1,
            welcome_epoch: 1,
            pacing: Pacing { time_scale },
            handshake_timeout,
        };
        let mut links = Vec::with_capacity(platform.len());
        let mut fingerprints = Vec::with_capacity(platform.len());
        let mut pumps = Vec::with_capacity(2 * platform.len());
        for (id, params) in platform.iter() {
            // A failed connection is simply dropped; the next one may be
            // the worker that actually belongs here.
            let (fingerprint, link) = loop {
                if let Ok(enrolled) = transport::master_enroll(next()?, &terms, id, *params) {
                    break enrolled;
                }
            };
            let (side, link_pumps) = link.into_parts();
            links.push(side);
            fingerprints.push(fingerprint);
            pumps.extend(link_pumps);
        }
        let master = MasterEndpoint::new(OnePort::new(), links, config.liveness);
        Ok(Session::new(master, Vec::new(), pumps, fingerprints, platform, time_scale, config.clone()))
    }

    /// A fresh fleet (membership epoch 1, no run drawn yet) over `master`.
    fn new(
        master: MasterEndpoint,
        handles: Vec<thread::JoinHandle<()>>,
        pumps: Vec<thread::JoinHandle<()>>,
        fingerprints: Vec<Vec<u8>>,
        platform: &Platform,
        time_scale: f64,
        config: Config,
    ) -> Session {
        Session {
            master,
            handles,
            pumps,
            fingerprints,
            platform: Some(platform.clone()),
            pacing: Pacing { time_scale },
            epoch: 1,
            config,
            run_gen: AtomicU32::new(0),
        }
    }

    /// **Elastic enrollment**: accept and enroll one more worker from
    /// `listener` *between runs*, growing the fleet by one slot. The new
    /// worker gets the next free id, `params` as its link/memory terms,
    /// and the session's own pacing; its link joins the one-port arbiter
    /// like any original member, so the next run's selection algorithms
    /// see it automatically.
    ///
    /// `admit` takes `&mut self`, so no other thread can be driving a
    /// run on this session while the fleet changes.
    ///
    /// Admission is a membership change, so the session's epoch is
    /// bumped and the newcomer's welcome carries the **new** epoch —
    /// every welcome issued before this admit is thereby stale.
    pub fn admit(
        &mut self,
        listener: &TransportListener,
        params: WorkerParams,
    ) -> io::Result<WorkerId> {
        let stream = listener.accept()?;
        let next = WorkerId(self.master.workers());
        let terms = EnrollTerms {
            config: &self.config,
            epoch: self.epoch,
            welcome_epoch: self.epoch + 1,
            pacing: self.pacing,
            handshake_timeout: HANDSHAKE_TIMEOUT,
        };
        let (fingerprint, link) = transport::master_enroll(stream, &terms, next, params)?;
        self.epoch += 1;
        let (side, link_pumps) = link.into_parts();
        let id = self.master.add_link(side);
        debug_assert_eq!(id, next);
        self.fingerprints.push(fingerprint);
        self.pumps.extend(link_pumps);
        let mut fleet = self.platform.take().map_or_else(Vec::new, |p| p.workers().to_vec());
        fleet.push(params);
        #[allow(clippy::expect_used, reason = "the fleet holds the worker just admitted, with parameters its welcome carried")]
        let platform = Platform::new(fleet).expect("fleet is non-empty after admit");
        self.platform = Some(platform);
        Ok(id)
    }

    /// **Elastic disenrollment**: drop every link whose death flag is
    /// set (liveness deadline missed, socket error, or an explicit
    /// `mark_dead` from a failure-aware scheduler), compacting the
    /// surviving workers — and [`Session::platform`] with them — down to
    /// ids `0..workers()`. Returns the removed workers' **pre-prune**
    /// indices, ascending.
    ///
    /// Survivors shifting down is safe: master-side routing is purely
    /// structural (links are addressed by index) and no data frame
    /// carries a worker id, so neither side needs renumbering. A pruned
    /// link that was still half-alive gets a shutdown frame from its
    /// dying out-pump, so a wrongly-condemned worker process exits
    /// orderly instead of leaking.
    pub fn prune_dead(&mut self) -> Vec<usize> {
        let mut removed = Vec::new();
        let mut idx = 0;
        let mut original = 0;
        while idx < self.master.workers() {
            if self.master.is_dead(WorkerId(idx)) {
                drop(self.master.remove_link(idx));
                self.fingerprints.remove(idx);
                removed.push(original);
            } else {
                idx += 1;
            }
            original += 1;
        }
        if !removed.is_empty() {
            let survivors = self.platform.take().map_or_else(Vec::new, |p| {
                let slots = p.workers().iter().enumerate();
                slots.filter(|(i, _)| !removed.contains(i)).map(|(_, w)| *w).collect()
            });
            self.platform = Platform::new(survivors).ok();
            // A membership change: welcomes issued to the old fleet are
            // now stale, so redialing a dead worker's old epoch at the
            // door gets rejected instead of resurrecting a ghost slot.
            self.epoch += 1;
            // Reap the pump threads the dropped links no longer need.
            // They exit on their own — the in-pump on the dead socket,
            // the out-pump when the link's channel sender drops — but
            // possibly not instantly, so only finished ones are joined
            // here; stragglers wait for teardown.
            let pumps = std::mem::take(&mut self.pumps);
            for pump in pumps {
                if pump.is_finished() {
                    let _ = pump.join();
                } else {
                    self.pumps.push(pump);
                }
            }
        }
        removed
    }

    /// Change the whole-run budget ([`Config::run_deadline`]) for the runs
    /// that start after this call; `None` lifts it. `&mut self`, so no
    /// run is open while it changes.
    pub fn set_run_deadline(&mut self, budget: Option<Duration>) {
        self.config.run_deadline = budget;
    }

    /// The whole-run budget the master executor holds each run to.
    pub fn run_deadline(&self) -> Option<Duration> {
        self.config.run_deadline
    }

    /// How many enrolled workers are currently flagged dead (their
    /// links will be dropped by the next [`Session::prune_dead`]).
    pub fn dead_workers(&self) -> usize {
        (0..self.master.workers()).filter(|&i| self.master.is_dead(WorkerId(i))).count()
    }

    /// The fingerprint bytes each worker presented at enrollment, in slot
    /// order (empty for channel-transport workers, which never enroll).
    pub fn worker_fingerprints(&self) -> &[Vec<u8>] {
        &self.fingerprints
    }

    /// The current fleet as a platform description: the parameters each
    /// slot was spawned, accepted or admitted with. `None` after every
    /// worker was pruned, until an [`Session::admit`] repopulates it.
    pub fn platform(&self) -> Option<&Platform> {
        self.platform.as_ref()
    }

    /// The master endpoint (valid for the session's whole lifetime).
    pub fn master(&self) -> &MasterEndpoint {
        &self.master
    }

    /// The current membership epoch: 1 for a fresh fleet, bumped by every
    /// [`Session::admit`] and every non-empty [`Session::prune_dead`]. A
    /// hello presenting any other non-zero epoch is refused at the door.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of pooled workers.
    pub fn workers(&self) -> usize {
        self.master.workers()
    }

    /// Open a run on `workers`, waking each from its parked receive with a
    /// `RUN_BEGIN` frame carrying `param`. Workers outside the set stay
    /// parked and cost nothing.
    ///
    /// The run is identified by a freshly drawn generation, registered at
    /// every link alongside any other open run's, so several runs may
    /// interleave their frames on the same links: each link files a reply
    /// under the header's `run` field as it arrives
    /// ([`MasterEndpoint::recv_deadline`]). The caller contract: every
    /// frame the run's driver sends is stamped with
    /// [`RunEpoch::generation`], its receives are scoped to that
    /// generation, it closes the run on the same `workers`, and a worker
    /// program that may see overlapping runs tracks state per generation
    /// and replies via [`WorkerEndpoint::send_in`]. How many runs may be
    /// open at once, and on which workers, is the caller's to decide (the
    /// workers' memory bounds it); this layer sets no limit.
    ///
    /// Lifecycle frames are sent best-effort: a worker that already died
    /// (it panicked mid-previous-run) must surface as the data path's
    /// "worker died" receive failure — or as the worker's own panic at
    /// join time — not as an unrelated send panic here.
    pub fn begin_run_on(&self, workers: &[WorkerId], param: u32) -> RunEpoch {
        let run = self.next_run_gen();
        // Register before the RUN_BEGIN goes out: the begin frame itself
        // carries the generation (that is how workers learn it), and the
        // first replies may race the registration otherwise.
        self.master.register_run(run);
        let begun = trace_run_begin(run);
        self.send_lifecycle(workers, run, run_begin_frame(param));
        RunEpoch { run, begun }
    }

    /// Close the run opened by the matching [`Session::begin_run_on`]:
    /// sends `RUN_END` (stamped with the run's generation) to its
    /// `workers`, best-effort like [`Session::begin_run_on`], then retires
    /// the generation — its data frames are stale again, and anything
    /// still in its queues is dropped and counted as rejected.
    pub fn finish_run_on(&self, workers: &[WorkerId], epoch: RunEpoch) {
        self.close_run(workers, epoch, run_end_frame(), "RUN_END")
    }

    /// Abort the run opened by the matching [`Session::begin_run_on`]: each
    /// of its `workers` gets a `RUN_ABORT` control frame — which, FIFO
    /// order being per-link, is the last frame of the aborted run it
    /// sees, so it discards that generation's state, keeps its scratch
    /// (and any other open run) intact, and parks once nothing is open.
    /// Frames the workers had already sent back are left un-received;
    /// they carry the retired generation, so every later receive
    /// structurally rejects them.
    pub fn abort_run_on(&self, workers: &[WorkerId], epoch: RunEpoch) {
        self.close_run(workers, epoch, run_abort_frame(), "RUN_ABORT")
    }

    /// [`Session::begin_run_on`] workers `0..enrolled`.
    pub fn begin_run(&self, enrolled: usize, param: u32) -> RunEpoch {
        self.begin_run_on(&first(enrolled), param)
    }

    /// [`Session::finish_run_on`] workers `0..enrolled`.
    pub fn finish_run(&self, enrolled: usize, epoch: RunEpoch) {
        self.finish_run_on(&first(enrolled), epoch)
    }

    fn close_run(&self, workers: &[WorkerId], epoch: RunEpoch, frame: Frame, label: &'static str) {
        self.send_lifecycle(workers, epoch.run, frame);
        self.master.deregister_run(epoch.run);
        trace_run_close(epoch.run, epoch.begun, label);
    }

    /// Send each of `workers` a copy of `frame` stamped with `run`.
    fn send_lifecycle(&self, workers: &[WorkerId], run: u32, mut frame: Frame) {
        frame.run = run;
        for &worker in workers {
            self.master.send_lossy(worker, frame.clone());
        }
    }

    /// Draw the next run generation, skipping the reserved "no run"
    /// value 0 on wraparound: a long-lived serving session that crosses
    /// 2³² runs must not stamp generation 0 — every one of that run's
    /// data frames would be structurally rejected as "between runs".
    fn next_run_gen(&self) -> u32 {
        loop {
            let run = self.run_gen.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
            if run != 0 {
                return run;
            }
        }
    }

    /// Total inbound data frames this session's links rejected for
    /// carrying a stale run generation (see [`crate::link`]).
    pub fn stale_rejections(&self) -> u64 {
        self.master.stale_rejections()
    }

    /// Orderly shutdown: sends every worker a shutdown frame and joins its
    /// thread. Returns the number of workers joined; propagates a worker
    /// panic to the caller.
    pub fn shutdown(mut self) -> usize {
        self.teardown(true)
    }

    fn teardown(&mut self, propagate_panics: bool) -> usize {
        for idx in 0..self.master.workers() {
            // Best-effort: a worker that already exited (panic, closed
            // channel) must not turn teardown into a send panic.
            self.master.send_lossy(WorkerId(idx), Frame::shutdown());
        }
        let mut joined = 0;
        for handle in self.handles.drain(..) {
            match handle.join() {
                Ok(()) => joined += 1,
                Err(payload) if propagate_panics => std::panic::resume_unwind(payload),
                Err(_) => {}
            }
        }
        // Socket transports: the shutdown frames just forwarded end the
        // out-pumps; the workers closing their sockets (thread return or
        // remote process exit) ends the in-pumps. Pump panics are never
        // propagated — they carry no run state.
        for pump in self.pumps.drain(..) {
            let _ = pump.join();
        }
        // The master process may exit next: the spans of the teardown
        // itself, and any batch still queued, reach the trace file first.
        record::sync();
        joined
    }
}

impl Drop for Session {
    /// Dropping a session shuts it down: workers get the shutdown frame
    /// and are joined (panics are swallowed — the master is often already
    /// unwinding when a drop-path teardown runs).
    fn drop(&mut self) {
        self.teardown(false);
    }
}

/// Drive a worker endpoint through the session protocol until shutdown:
/// the outer loop every session worker parks in — the in-process worker
/// threads and **remote worker processes** (the `mwp-worker` binary)
/// alike. Parks in `ep.recv()` between runs (blocking, no polling); each
/// `RUN_BEGIN` invokes `program` with the run parameter; returns when the
/// master sends a shutdown frame, the connection/channel closes or a data
/// frame arrives outside any run (which drops the link), with every span
/// this process recorded on disk ([`record::sync`]).
pub fn serve_worker<P>(ep: WorkerEndpoint, program: &mut P)
where
    P: FnMut(u32, &WorkerEndpoint) -> RunExit,
{
    loop {
        let frame = match ep.recv() {
            Ok(f) => f,
            Err(_) => break, // master endpoint dropped: implicit shutdown
        };
        match frame.tag.kind {
            FrameKind::Shutdown => break,
            FrameKind::Control if frame.tag.i == RUN_BEGIN => {
                if program(frame.tag.j, &ep) == RunExit::Terminate {
                    break;
                }
            }
            // A stray lifecycle frame while parked is harmless: an abort
            // (or end) broadcast can reach a worker whose program already
            // left the run on its own. Stay parked.
            FrameKind::Control if frame.tag.i == RUN_END || frame.tag.i == RUN_ABORT => {}
            // Data outside a run: the peer is desynced, drop the link.
            _ => break,
        }
    }
    // A worker process may exit right after this returns: wait for the
    // trace writer, don't just hand off.
    record::sync();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Tag;
    use bytes::Bytes;

    /// An echo program: bounce every in-run frame back tagged with the
    /// run parameter, so tests can see which run served them.
    fn echo_program(param: u32, ep: &WorkerEndpoint) -> RunExit {
        loop {
            let frame = match ep.recv() {
                Ok(f) => f,
                Err(_) => return RunExit::Terminate,
            };
            match frame.tag.kind {
                FrameKind::Shutdown => return RunExit::Terminate,
                FrameKind::Control if frame.tag.i == RUN_END || frame.tag.i == RUN_ABORT => {
                    return RunExit::Completed
                }
                _ => ep.send(Frame::new(
                    Tag::new(FrameKind::CResult, frame.tag.i as usize, param as usize),
                    frame.payload,
                )),
            }
        }
    }

    fn echo_session(p: usize) -> Session {
        let platform = Platform::homogeneous(p, 1.0, 1.0, 8).unwrap();
        Session::spawn(&platform, 0.0, |_, _| echo_program)
    }

    /// Send worker `w` one block frame of `epoch`'s run, tagged `(kind, i)`.
    /// Returns its cost, which is 1 on the `c = 1` platforms used here.
    fn send_in(session: &Session, epoch: &RunEpoch, w: usize, kind: FrameKind, i: usize) -> f64 {
        let frame =
            Frame::new_in_run(Tag::new(kind, i, 0), epoch.generation(), Bytes::from_static(b"x"));
        session.master().send(WorkerId(w), frame, 1)
    }

    /// Receive worker `w`'s next frame of `epoch`'s run, and its cost.
    fn recv_in(session: &Session, epoch: &RunEpoch, w: usize) -> (Frame, f64) {
        let t = Some(std::time::Duration::from_secs(10));
        session.master().recv_timeout(WorkerId(w), epoch.generation(), 1, t).expect("echo")
    }

    /// One echo run over workers `0..workers`: each is sent one block and
    /// must bounce it back, routed per link and stamped with `param`.
    /// Returns the blocks the master's port moved meanwhile (on `c = 1`
    /// links, the sum of the transfers' costs).
    fn echo_round(session: &Session, workers: usize, param: u32) -> u64 {
        let mut blocks = 0.0;
        let epoch = session.begin_run(workers, param);
        for w in 0..workers {
            blocks += send_in(session, &epoch, w, FrameKind::BlockA, w);
        }
        for w in 0..workers {
            let (frame, cost) = recv_in(session, &epoch, w);
            assert_eq!(frame.tag.kind, FrameKind::CResult);
            assert_eq!(frame.tag.i as usize, w, "echo routed per link");
            assert_eq!(frame.tag.j, param, "program saw this run's parameter");
            blocks += cost;
        }
        session.finish_run(workers, epoch);
        blocks as u64
    }

    /// The deployment the remote-fleet tests run under: a secret, so every
    /// enrollment gate below is exercised authenticated.
    fn fleet() -> Config {
        Config { fleet_secret: b"session-tests".to_vec(), ..Config::default() }
    }

    /// A remote fleet member: dial `endpoint` (on the calling thread, so
    /// dialers reach the listener in the order they are made), then, on a
    /// thread of its own, enroll presenting `epoch`/`fp` and
    /// serve echo runs until shutdown. Joins to the welcome's epoch, or
    /// to the kind of the enrollment error. Dials under [`fleet`], as the
    /// session under test accepts.
    fn remote_worker(
        endpoint: &str,
        epoch: u64,
        fp: &'static [u8],
    ) -> thread::JoinHandle<Result<u64, io::ErrorKind>> {
        let stream = transport::connect_with_retry(endpoint, Duration::from_secs(10)).unwrap();
        thread::spawn(move || {
            let (ep, welcome) =
                transport::enroll_with(stream, fp, epoch, &fleet()).map_err(|e| e.kind())?;
            serve_worker(ep, &mut echo_program);
            Ok(welcome.epoch)
        })
    }

    #[test]
    fn one_session_serves_many_runs() {
        let session = echo_session(2);
        let mut blocks = 0;
        for run in 0..5u32 {
            // Each run moved exactly its own 4 blocks.
            let moved = echo_round(&session, 2, run);
            assert_eq!(moved, 4);
            blocks += moved;
        }
        assert_eq!(blocks, 20);
        assert_eq!(session.shutdown(), 2);
    }

    #[test]
    fn aborted_run_leaves_the_session_serving_and_rejects_leftovers() {
        let session = echo_session(1);

        // Run 1: send a block but abort without receiving the echo — the
        // reply is left in flight, stamped with generation 1.
        let epoch = session.begin_run(1, 1);
        send_in(&session, &epoch, 0, FrameKind::BlockA, 0);
        session.abort_run_on(&[WorkerId(0)], epoch);

        // Run 2 on the same session: the leftover generation-1 reply must
        // never surface; the run's own traffic flows normally.
        let epoch = session.begin_run(1, 2);
        send_in(&session, &epoch, 0, FrameKind::BlockA, 5);
        let (frame, _) = recv_in(&session, &epoch, 0);
        assert_eq!(frame.tag.i, 5, "run 2 must see its own echo, not run 1's leftover");
        assert_eq!(frame.tag.j, 2);
        session.finish_run(1, epoch);
        assert!(
            session.stale_rejections() >= 1,
            "the aborted run's in-flight reply must be rejected by generation"
        );
        assert_eq!(session.shutdown(), 1);
    }

    #[test]
    fn partial_enrollment_leaves_other_workers_parked() {
        let session = echo_session(3);
        let epoch = session.begin_run(1, 7);
        let sent = send_in(&session, &epoch, 0, FrameKind::BlockB, 9);
        let (frame, received) = recv_in(&session, &epoch, 0);
        assert_eq!(frame.tag.j, 7);
        session.finish_run(1, epoch);
        assert_eq!(sent + received, 2.0);
        // Workers 1 and 2 never saw a frame; shutdown still joins all 3.
        assert_eq!(session.shutdown(), 3);
    }

    #[test]
    fn lifecycle_frames_reach_only_the_runs_workers() {
        // Every worker logs each wake and each orderly end with the run's
        // parameter: a run on worker 1 alone wakes and ends worker 1 only,
        // and the count form still opens the next run on both.
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let platform = Platform::homogeneous(2, 1.0, 1.0, 8).unwrap();
        let session = Session::spawn(&platform, 0.0, |id, _| {
            let log = std::sync::Arc::clone(&log);
            move |param: u32, ep: &WorkerEndpoint| {
                log.lock().unwrap().push((id, RUN_BEGIN, param));
                let exit = echo_program(param, ep);
                if exit == RunExit::Completed {
                    log.lock().unwrap().push((id, RUN_END, param));
                }
                exit
            }
        });
        let alone = [WorkerId(1)];
        let epoch = session.begin_run_on(&alone, 7);
        send_in(&session, &epoch, 1, FrameKind::BlockA, 3);
        assert_eq!(recv_in(&session, &epoch, 1).0.tag.j, 7);
        session.finish_run_on(&alone, epoch);
        assert_eq!(echo_round(&session, 2, 8), 4, "both workers serve the next run");
        assert_eq!(session.shutdown(), 2);
        let log = log.lock().unwrap();
        let seen = |w| log.iter().filter(|e| e.0 == WorkerId(w)).map(|e| (e.1, e.2)).collect::<Vec<_>>();
        assert_eq!(seen(0), [(RUN_BEGIN, 8), (RUN_END, 8)], "worker 0 parked through run 7");
        assert_eq!(seen(1), [(RUN_BEGIN, 7), (RUN_END, 7), (RUN_BEGIN, 8), (RUN_END, 8)]);
    }

    #[test]
    fn a_block_frame_to_a_parked_worker_drops_its_link_without_unwinding() {
        let session = echo_session(2);
        let frame = Frame::new(Tag::new(FrameKind::BlockA, 0, 0), Bytes::from_static(b"x"));
        session.master().send(WorkerId(1), frame, 1);
        // Worker 1 leaves its loop; `shutdown` would re-raise a panic.
        assert!(session.master().recv_timeout(WorkerId(1), 0, 0, None).is_none(), "the link closed");
        assert_eq!(echo_round(&session, 1, 3), 2, "worker 0 still serves");
        assert_eq!(session.shutdown(), 2);
    }

    #[test]
    fn drop_without_shutdown_joins_cleanly() {
        let session = echo_session(4);
        let epoch = session.begin_run(4, 0);
        session.finish_run(4, epoch);
        drop(session); // would hang (test timeout) if workers leaked
    }

    #[test]
    fn admit_grows_a_remote_session_between_runs() {
        // Start a remote star with one worker, serve a run, then enroll
        // a second worker on the still-open listener and serve a run on
        // both: the fleet grew without tearing the session down.
        let platform = Platform::homogeneous(1, 1.0, 1.0, 8).unwrap();
        let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
        let endpoint = listener.endpoint();
        let w0 = remote_worker(&endpoint, 0, b"elastic");
        let mut session =
            Session::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
        assert_eq!(session.workers(), 1);
        assert_eq!(session.epoch(), 1, "a fresh fleet is generation 1");
        echo_round(&session, 1, 1);
        // Between runs: a new worker dials in and is admitted.
        let w1 = remote_worker(&endpoint, 0, b"elastic");
        let id = session
            .admit(&listener, WorkerParams { c: 1.0, w: 1.0, m: 8 })
            .unwrap();
        assert_eq!(id, WorkerId(1));
        assert_eq!(session.workers(), 2);
        assert_eq!(session.epoch(), 2, "admission is a membership change");
        assert_eq!(session.worker_fingerprints()[1], b"elastic".to_vec());
        // The admitted worker serves runs like any other.
        echo_round(&session, 2, 2);
        drop(session);
        assert_eq!(w0.join().unwrap(), Ok(1));
        assert_eq!(w1.join().unwrap(), Ok(2));
    }

    #[test]
    fn prune_dead_compacts_the_fleet() {
        // Two remote workers; one is declared dead between runs. Prune
        // drops its link and the survivor (shifted down to slot 0 if it
        // was above) keeps serving runs.
        let platform = Platform::homogeneous(2, 1.0, 1.0, 8).unwrap();
        let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
        let endpoint = listener.endpoint();
        let workers: Vec<_> =
            (0..2).map(|_| remote_worker(&endpoint, 0, b"fleet")).collect();
        let mut session =
            Session::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
        assert_eq!(session.dead_workers(), 0);
        assert_eq!(session.prune_dead(), Vec::<usize>::new());
        assert_eq!(session.epoch(), 1, "an empty prune is not a membership change");
        session.master().mark_dead(WorkerId(0));
        assert_eq!(session.dead_workers(), 1);
        assert_eq!(session.prune_dead(), vec![0]);
        assert_eq!(session.workers(), 1);
        assert_eq!(session.dead_workers(), 0);
        assert_eq!(session.epoch(), 2, "pruning advances the membership epoch");
        // The survivor still serves a run at its new slot 0.
        echo_round(&session, 1, 3);
        drop(session);
        // Both worker threads exit orderly: the survivor on the
        // teardown shutdown frame, the pruned one on the shutdown its
        // dying out-pump synthesized.
        for w in workers {
            assert_eq!(w.join().unwrap(), Ok(1));
        }
    }

    /// A worker clinging to a previous fleet generation's epoch is
    /// turned away at the door, and the same listener keeps admitting
    /// fresh (epoch-0) members afterwards — one stale dialer must not
    /// wedge elastic enrollment.
    #[test]
    fn stale_epoch_redial_is_rejected_but_the_door_stays_open() {
        let platform = Platform::homogeneous(1, 1.0, 1.0, 8).unwrap();
        let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
        let endpoint = listener.endpoint();
        let dial = |epoch: u64| remote_worker(&endpoint, epoch, b"fleet");
        let w0 = dial(0);
        let mut session =
            Session::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
        // Grow the fleet once so the current epoch moves past 1.
        let w1 = dial(0);
        session.admit(&listener, WorkerParams { c: 1.0, w: 1.0, m: 8 }).unwrap();
        assert_eq!(session.epoch(), 2);
        // A replay from generation 1 is rejected by the admission gate…
        let stale = dial(1);
        let err = session
            .admit(&listener, WorkerParams { c: 1.0, w: 1.0, m: 8 })
            .expect_err("stale-epoch dialer must not be admitted");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(stale.join().unwrap(), Err(io::ErrorKind::PermissionDenied));
        assert_eq!(session.workers(), 2, "the stale dialer got no slot");
        assert_eq!(session.epoch(), 2, "a rejected dialer is not a membership change");
        // …while a fresh worker enrolls right after, at generation 3.
        let w2 = dial(0);
        let id = session
            .admit(&listener, WorkerParams { c: 1.0, w: 1.0, m: 8 })
            .unwrap();
        assert_eq!(id, WorkerId(2));
        assert_eq!(session.epoch(), 3);
        drop(session);
        assert_eq!(w0.join().unwrap(), Ok(1));
        assert_eq!(w1.join().unwrap(), Ok(2));
        assert_eq!(w2.join().unwrap(), Ok(3), "the newcomer's welcome carries the new epoch");
    }

    /// The one master-side enrollment, through both of its callers — the
    /// star accept loop and `Session::admit` — against the refusal its
    /// epoch gate issues: each bad dialer reads the
    /// `REJECT_*` code naming its gate, the next good hello enrolls, and
    /// the fleet serves a run after every rejection.
    #[test]
    fn enrollment_rejections_are_coded_and_leave_the_fleet_serviceable() {
        use transport::REJECT_EPOCH;
        let platform = Platform::homogeneous(2, 1.0, 1.0, 8).unwrap();
        let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
        let endpoint = listener.endpoint();
        // A dialer the master must refuse: walks the handshake by hand and
        // joins to the code of the REJECT frame it is answered with.
        let refused = {
            let endpoint = endpoint.clone();
            move |epoch: u64, fp: &'static [u8]| {
                let wait = Duration::from_secs(10);
                let mut conn = transport::connect_with_retry(&endpoint, wait).unwrap();
                thread::spawn(move || {
                    let cap = transport::MAX_HANDSHAKE_WIRE_LEN;
                    conn.set_read_timeout(Some(wait)).unwrap();
                    let challenge = conn.recv_frame_capped(cap).unwrap().expect("challenge");
                    let challenge = transport::parse_challenge(&challenge).unwrap();
                    let hello = transport::Hello {
                        epoch,
                        nonce: crate::auth::fresh_nonce(),
                        fingerprint: fp.to_vec(),
                    };
                    let hello = transport::hello_frame(&hello, &fleet().fleet_secret, &challenge);
                    conn.send_frame(&hello).unwrap();
                    let reply = conn.recv_frame_capped(cap).unwrap().expect("reject");
                    assert!(transport::is_reject(&reply), "expected a reject, got {:?}", reply.tag);
                    reply.tag.j
                })
            }
        };
        // The star accept loop: slot 0 fills, a dialer is refused, then
        // slot 1 fills and the loop ends.
        let script = {
            let (endpoint, refused) = (endpoint.clone(), refused.clone());
            thread::spawn(move || {
                let w0 = remote_worker(&endpoint, 0, b"fleet");
                assert_eq!(refused(7, b"fleet").join().unwrap(), REJECT_EPOCH, "star");
                vec![w0, remote_worker(&endpoint, 0, b"fleet")]
            })
        };
        let mut session = Session::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
        let mut workers = script.join().unwrap();
        echo_round(&session, 2, 1);

        // `Session::admit`: the next open slot is 2 and the epoch is 1.
        let params = WorkerParams { c: 1.0, w: 1.0, m: 8 };
        let dialer = refused(7, b"elastic");
        session.admit(&listener, params).expect_err("must be refused");
        assert_eq!(dialer.join().unwrap(), REJECT_EPOCH, "admit at epoch 7");
        assert_eq!((session.workers(), session.epoch()), (2, 1), "no membership change");
        echo_round(&session, 2, 2);
        workers.push(remote_worker(&endpoint, 0, b"elastic"));
        assert_eq!(session.admit(&listener, params).unwrap(), WorkerId(2));
        assert_eq!(session.epoch(), 2);
        echo_round(&session, 3, 3);
        drop(session);
        let welcomed_at: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(welcomed_at, [Ok(1), Ok(1), Ok(2)]);
    }

    #[test]
    fn run_generation_skips_zero_on_wrap() {
        // A session whose counter sits just below u32::MAX must never
        // stamp the reserved "no run" generation 0: the wrapped run
        // would have every data frame structurally rejected.
        let session = echo_session(1);
        // Set the run-generation counter: the next run gets `value + 1`,
        // modulo the skip-0 rule.
        session.run_gen.store(u32::MAX - 1, Ordering::Relaxed);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let epoch = session.begin_run(1, 0);
            send_in(&session, &epoch, 0, FrameKind::BlockA, 0);
            let (frame, _) = recv_in(&session, &epoch, 0);
            assert_ne!(frame.run, 0, "generation 0 must be skipped on wrap");
            seen.push(frame.run);
            session.finish_run(1, epoch);
        }
        assert_eq!(seen, vec![u32::MAX, 1, 2]);
        assert_eq!(session.stale_rejections(), 0, "no frame was lost to the wrap");
        assert_eq!(session.shutdown(), 1);
    }

    /// A run-generation-aware echo: replies are stamped with the
    /// generation of the frame they answer (not the latest adopted one),
    /// and the program returns to park only when every generation it saw
    /// open has ended — the shape a worker program serving overlapping
    /// runs must have.
    fn job_echo_program(_param: u32, ep: &WorkerEndpoint) -> RunExit {
        let mut open = vec![ep.current_run()];
        loop {
            let frame = match ep.recv() {
                Ok(f) => f,
                Err(_) => return RunExit::Terminate,
            };
            match frame.tag.kind {
                FrameKind::Shutdown => return RunExit::Terminate,
                FrameKind::Control if frame.tag.i == RUN_BEGIN => open.push(frame.run),
                FrameKind::Control if frame.tag.i == RUN_END || frame.tag.i == RUN_ABORT => {
                    open.retain(|&g| g != frame.run);
                    if open.is_empty() {
                        return RunExit::Completed;
                    }
                }
                _ => ep.send_in(
                    frame.run,
                    Frame::new(
                        Tag::new(FrameKind::CResult, frame.tag.i as usize, 0),
                        frame.payload,
                    ),
                ),
            }
        }
    }

    #[test]
    fn concurrent_job_runs_interleave_on_one_session() {
        let platform = Platform::homogeneous(1, 1.0, 1.0, 8).unwrap();
        let session = Session::spawn(&platform, 0.0, |_, _| job_echo_program);

        // Two runs in flight at once on the same worker link.
        let run_a = session.begin_run(1, 7);
        let run_b = session.begin_run(1, 8);
        assert_ne!(run_a.generation(), run_b.generation());

        // Interleave the runs' frames on the wire, each stamped with its
        // generation.
        for (epoch, i) in [(&run_a, 1usize), (&run_b, 2), (&run_a, 3), (&run_b, 4)] {
            send_in(&session, epoch, 0, FrameKind::BlockA, i);
        }

        // Collect run B first: its collector must stash run A's replies
        // for run A instead of dropping them.
        for (epoch, expect) in [(&run_b, [2, 4]), (&run_a, [1, 3])] {
            for i in expect {
                let (f, _) = recv_in(&session, epoch, 0);
                assert_eq!(f.run, epoch.generation());
                assert_eq!(f.tag.i, i);
            }
        }

        session.finish_run(1, run_a);
        session.finish_run(1, run_b);
        assert_eq!(session.stale_rejections(), 0, "no interleaved frame was dropped");

        // The session serves a solo run afterwards like any other.
        let epoch = session.begin_run(1, 9);
        send_in(&session, &epoch, 0, FrameKind::BlockA, 5);
        let (f, _) = recv_in(&session, &epoch, 0);
        assert_eq!(f.tag.i, 5);
        session.finish_run(1, epoch);
        assert_eq!(session.shutdown(), 1);
    }

    #[test]
    fn aborted_job_leaves_other_jobs_running() {
        let platform = Platform::homogeneous(1, 1.0, 1.0, 8).unwrap();
        let session = Session::spawn(&platform, 0.0, |_, _| job_echo_program);

        let run_a = session.begin_run(1, 1);
        let run_b = session.begin_run(1, 2);

        // Run A sends a frame whose echo is never collected, then aborts.
        send_in(&session, &run_a, 0, FrameKind::BlockA, 1);
        session.abort_run_on(&[WorkerId(0)], run_a);

        // Run B is untouched: its exchange completes bit-for-bit.
        send_in(&session, &run_b, 0, FrameKind::BlockA, 2);
        assert_eq!(recv_in(&session, &run_b, 0).0.tag.i, 2);
        session.finish_run(1, run_b);

        // Run A's orphaned echo was either retired from its queue or
        // rejected on arrival — counted either way.
        assert!(session.stale_rejections() >= 1);
        assert_eq!(session.shutdown(), 1);
    }

    /// The loopback-socket star must serve the exact same session
    /// protocol as the channel star: several runs, per-run traffic
    /// accounting, partial enrollment, orderly shutdown joining every
    /// worker thread and pump.
    fn echo_session_over(mode: TransportMode, p: usize) -> Session {
        let platform = Platform::homogeneous(p, 1.0, 1.0, 8).unwrap();
        Session::spawn_with_transport(&platform, 0.0, mode, |_, _| echo_program)
    }

    #[test]
    fn loopback_tcp_session_serves_consecutive_runs() {
        let session = echo_session_over(TransportMode::Tcp, 2);
        // In-process workers present no fingerprint, as on channels.
        assert_eq!(session.worker_fingerprints(), [Vec::<u8>::new(), Vec::new()]);
        for run in 0..3u32 {
            assert_eq!(echo_round(&session, 2, run), 4, "frames routed per socket link");
        }
        assert_eq!(session.shutdown(), 2);
    }

    #[cfg(unix)]
    #[test]
    fn loopback_uds_session_serves_runs() {
        let session = echo_session_over(TransportMode::Uds, 3);
        let epoch = session.begin_run(1, 9);
        let sent = send_in(&session, &epoch, 0, FrameKind::BlockB, 4);
        let (frame, received) = recv_in(&session, &epoch, 0);
        assert_eq!(frame.tag.j, 9);
        session.finish_run(1, epoch);
        assert_eq!(sent + received, 2.0);
        // Workers 1 and 2 stayed parked on their sockets; shutdown still
        // joins all three threads (and all six pumps, silently).
        assert_eq!(session.shutdown(), 3);
    }

    #[test]
    fn loopback_session_drop_without_shutdown_joins_cleanly() {
        let session = echo_session_over(TransportMode::Tcp, 2);
        let epoch = session.begin_run(2, 0);
        session.finish_run(2, epoch);
        drop(session); // would hang (test timeout) if a pump leaked
    }

    #[test]
    fn accept_remote_survives_garbage_and_oversized_connections() {
        use std::io::Write as _;
        // A master accepting remote workers on a reachable listener must
        // shrug off stray connections: a port-scan-style immediate
        // close, a garbage byte salvo, an adversarial 1 GiB length
        // prefix, and a held-open silent connection (which must be cut
        // by the handshake deadline, not park enrollment forever) —
        // then still enroll the real worker that arrives last.
        let platform = Platform::homogeneous(1, 1.0, 1.0, 8).unwrap();
        let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
        let endpoint = listener.endpoint();
        let addr = endpoint.strip_prefix("tcp://").unwrap().to_string();
        let noise = thread::spawn(move || {
            // 1: connect and immediately close (health-check probe).
            drop(std::net::TcpStream::connect(&addr).unwrap());
            // 2: garbage bytes instead of a hello.
            let mut s = std::net::TcpStream::connect(&addr).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            drop(s);
            // 3: oversized length prefix — must be rejected on the
            // handshake budget, not allocated.
            let mut s = std::net::TcpStream::connect(&addr).unwrap();
            s.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
            drop(s);
            // 4: connect, send nothing, and hold the socket open past
            // the handshake deadline (the head-of-line blocking case).
            let s = std::net::TcpStream::connect(&addr).unwrap();
            thread::sleep(std::time::Duration::from_millis(600));
            drop(s);
        });
        let worker = {
            let endpoint = endpoint.clone();
            thread::spawn(move || {
                // Arrive after the noise (best-effort ordering; any
                // interleaving must still enroll exactly one worker).
                thread::sleep(std::time::Duration::from_millis(30));
                let wait = Duration::from_secs(10);
                let (ep, welcome) =
                    transport::enroll_with_retry(&endpoint, wait, b"real-worker", &fleet())
                        .unwrap();
                assert_eq!(welcome.worker, WorkerId(0));
                serve_worker(ep, &mut echo_program);
            })
        };
        let silence_budget = Duration::from_millis(200);
        let session =
            Session::accept_star(|| listener.accept(), &platform, 0.0, silence_budget, &fleet())
                .unwrap();
        assert_eq!(session.worker_fingerprints()[0], b"real-worker".to_vec());
        assert_eq!(echo_round(&session, 1, 5), 2);
        drop(session); // delivers shutdown: the worker thread exits
        noise.join().unwrap();
        worker.join().unwrap();
    }

    /// A dialer that dies mid-handshake, on a thread: it reads the
    /// master's challenge and closes, or first answers it with a valid
    /// hello and closes before reading the welcome.
    fn dies_mid_handshake(endpoint: &str, after_hello: bool) -> thread::JoinHandle<()> {
        let mut stream = transport::connect(endpoint).unwrap();
        thread::spawn(move || {
            let challenge = stream.recv_frame_capped(transport::MAX_HANDSHAKE_WIRE_LEN);
            let challenge = transport::parse_challenge(&challenge.unwrap().unwrap()).unwrap();
            if after_hello {
                let hello = transport::Hello {
                    epoch: 0,
                    nonce: [3; 16],
                    fingerprint: b"dies-mid-handshake".to_vec(),
                };
                let hello = transport::hello_frame(&hello, &fleet().fleet_secret, &challenge);
                stream.send_frame(&hello).unwrap();
            }
        })
    }

    #[test]
    fn accept_remote_survives_a_peer_that_dies_mid_handshake() {
        // A dialer that dies between the challenge and the welcome is a
        // failed enrollment like any other: the door keeps accepting and
        // the honest worker dialing next gets the slot.
        let platform = Platform::homogeneous(1, 1.0, 1.0, 8).unwrap();
        for after_hello in [false, true] {
            let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
            let endpoint = listener.endpoint();
            let dier = dies_mid_handshake(&endpoint, after_hello);
            let honest = remote_worker(&endpoint, 0, b"honest");
            let session = Session::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
            assert_eq!(session.worker_fingerprints(), [b"honest".to_vec()], "after_hello: {after_hello}");
            assert_eq!(echo_round(&session, 1, 7), 2);
            assert_eq!(session.dead_workers(), 0);
            drop(session);
            dier.join().unwrap();
            assert_eq!(honest.join().unwrap(), Ok(1));
        }
    }
}
