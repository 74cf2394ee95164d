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
//! Between runs a worker costs nothing: it is blocked in the channel's
//! own blocking receive (condvar parking), not polling. This
//! is also the shape a future socket transport attaches to — a remote
//! worker process is exactly a session worker whose endpoint happens to
//! be a socket.

use crate::config::Config;
use crate::endpoint::{MasterEndpoint, WorkerEndpoint};
use crate::frame::{Frame, FrameKind};
use crate::link::Pacing;
use crate::net::StarNetwork;
use crate::port::OnePort;
use crate::transport::{
    self, EnrollTerms, TransportListener, TransportMode, HANDSHAKE_TIMEOUT, SERVICE_INPROC,
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

/// Receipt for an open run (see [`Session::begin_run`]): the run is
/// identified purely by its generation — several may be in flight on one
/// session at once — and the receipt remembers the session's block
/// counters at run start so [`Session::finish_run`] can report the
/// traffic moved while it was open. Pass it back to
/// [`Session::finish_run`] or [`Session::abort_run`] to retire the
/// generation.
#[must_use = "pass the epoch back to finish_run/abort_run to retire its generation"]
#[derive(Debug)]
pub struct RunEpoch {
    blocks_at_start: u64,
    /// The generation this run stamps its frames with.
    run: u32,
    /// Trace time of the `RUN_BEGIN` (recorded only while tracing is on):
    /// `finish_run`/`abort_run` close the lifecycle span against it.
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

/// A star network whose worker threads are spawned once and reused for an
/// unbounded sequence of runs, up to [`crate::link::MAX_CONCURRENT_RUNS`]
/// of them open at once.
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
    /// counter, bumped by every [`Session::begin_run`]. The drawn value is
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
    /// [`Session::spawn_with_transport`] picks loopback TCP/Unix sockets
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
        // The loopback-socket star: worker threads live in this process (as
        // on the channel transport, so panics still propagate through
        // `shutdown`) but each one dials the master's listener and enrolls
        // over the wire — every frame of every run crosses a real socket.
        let listener = TransportListener::bind(mode).expect("bind loopback listener");
        let endpoint = listener.endpoint();
        let fp = fingerprint(platform, time_scale);
        let handles = platform
            .iter()
            .map(|(id, params)| {
                let (endpoint, fp) = (endpoint.clone(), fp.clone());
                spawn_worker(id, factory(id, *params), move || {
                    let (wait, config) = (Duration::from_secs(10), Config::default());
                    let enrolled =
                        transport::enroll_with_retry(&endpoint, wait, Some(id), &fp, &config);
                    enrolled.expect("loopback enroll").0
                })
            })
            .collect();
        let accepted = Self::accept_star(
            &listener,
            platform,
            time_scale,
            SERVICE_INPROC,
            Some((&fp, handles)),
            HANDSHAKE_TIMEOUT,
            &Config::default(),
        );
        accepted.expect("accept loopback workers")
    }

    /// Build a session whose workers are **remote processes**: accept one
    /// connection per platform worker from `listener` (each a `mwp-worker`
    /// process, or any peer speaking the enrollment handshake), assign
    /// slots in arrival order (or honor a claimed slot), and reply to each
    /// with its link/memory parameters and `service` — the id telling the
    /// worker which program to run ([`transport::SERVICE_MATRIX`],
    /// [`transport::SERVICE_LU`]). `config` is the deployment's: its
    /// secret and liveness terms are what every enrolling worker must
    /// have been started with too.
    ///
    /// The returned session is driven exactly like a local one: the
    /// one-port arbiter, pacing, and statistics all live on this side.
    /// `shutdown` sends every remote worker a shutdown frame; an orderly
    /// worker process exits on it, which is what terminates the link's
    /// pump threads.
    pub fn accept_remote(
        platform: &Platform,
        time_scale: f64,
        listener: &TransportListener,
        service: u8,
        config: &Config,
    ) -> io::Result<Session> {
        Self::accept_star(listener, platform, time_scale, service, None, HANDSHAKE_TIMEOUT, config)
    }

    /// Accept enrollments from `listener` until every one of
    /// `platform.len()` slots is filled, wiring each into a
    /// [`transport::RemoteLink`]: the master-facing halves assemble into
    /// a [`MasterEndpoint`] indistinguishable from the channel
    /// transport's. Slots are honored when claimed (loopback worker
    /// threads know their id), assigned in arrival order otherwise
    /// (remote processes ask with `CLAIM_ANY`). `loopback`, when given,
    /// is the fingerprint every hello must present and the in-process
    /// worker threads that dial in. `config` is checked
    /// ([`Config::check`]) and kept for the session's lifetime.
    ///
    /// A connection that fails enrollment — garbage instead of a hello,
    /// an out-of-range or taken slot claim, a foreign fingerprint, an
    /// oversized handshake frame, or a peer that simply goes silent (its
    /// handshake reads run under `handshake_timeout`) — is **dropped and
    /// the loop keeps accepting**: on a network-reachable listener a
    /// stray port scan or held-open health probe must not abort or park
    /// the star's startup. Only a listener-level `accept` failure aborts
    /// — plus one of the `loopback` worker threads dying before its slot
    /// fills, which would
    /// otherwise leave this loop waiting for a connection that can never
    /// arrive.
    fn accept_star(
        listener: &TransportListener,
        platform: &Platform,
        time_scale: f64,
        service: u8,
        loopback: Option<(&[u8], Vec<thread::JoinHandle<()>>)>,
        handshake_timeout: Duration,
        config: &Config,
    ) -> io::Result<Session> {
        config.check().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let (expect_fp, handles) = loopback.unzip();
        let handles = handles.unwrap_or_default();
        let terms = EnrollTerms {
            config,
            epoch: 1,
            welcome_epoch: 1,
            pacing: Pacing { time_scale },
            service,
            handshake_timeout,
        };
        let p = platform.len();
        let mut sides: Vec<Option<crate::link::MasterSide>> = (0..p).map(|_| None).collect();
        let mut fingerprints = vec![Vec::new(); p];
        let mut pumps = Vec::with_capacity(2 * p);
        let mut filled = 0usize;
        while filled < p {
            let stream = if handles.is_empty() {
                listener.accept()?
            } else {
                // Interleave accepting with a liveness check on the local
                // worker threads that are supposed to dial in: if one died
                // (connect/enroll panic) its slot can never fill, and
                // blocking forever would turn that failure into a hang.
                match listener.accept_timeout(Duration::from_millis(250))? {
                    Some(stream) => stream,
                    None if handles.iter().any(|h| h.is_finished()) => {
                        return Err(io::Error::other(
                            "a loopback worker thread died before enrolling",
                        ));
                    }
                    None => continue,
                }
            };
            let enrolled = transport::master_enroll(stream, &terms, |hello| {
                let id = match hello.claimed {
                    Some(id) if id.index() < p && sides[id.index()].is_none() => id,
                    Some(id) => {
                        let reason =
                            format!("claimed slot {} (out of range or taken)", id.index());
                        return Err((transport::REJECT_SLOT, reason));
                    }
                    None => WorkerId(
                        (0..p).find(|&i| sides[i].is_none()).expect("filled < p: a slot is free"),
                    ),
                };
                if expect_fp.is_some_and(|expected| hello.fingerprint != expected) {
                    let reason = "enrolled with a foreign platform fingerprint".to_string();
                    return Err((transport::REJECT_FINGERPRINT, reason));
                }
                Ok((id, platform.workers()[id.index()]))
            });
            // A failed connection is simply dropped; the next accept may
            // be the worker that actually belongs here.
            if let Ok((id, fingerprint, link)) = enrolled {
                let (side, link_pumps) = link.into_parts();
                sides[id.index()] = Some(side);
                fingerprints[id.index()] = fingerprint;
                pumps.extend(link_pumps);
                filled += 1;
            }
        }
        let links = sides.into_iter().map(|s| s.expect("every slot filled")).collect();
        let master = MasterEndpoint::new(OnePort::new(), links, config.liveness);
        Ok(Session::new(master, handles, pumps, fingerprints, platform, time_scale, config.clone()))
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
    /// worker gets the next free id (a claimed slot must match it),
    /// `params` as its link/memory terms, and the session's own pacing;
    /// its link joins the one-port arbiter like any original member, so
    /// the next run's selection algorithms see it automatically.
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
        service: u8,
    ) -> io::Result<WorkerId> {
        let stream = listener.accept()?;
        let next = WorkerId(self.master.workers());
        let terms = EnrollTerms {
            config: &self.config,
            epoch: self.epoch,
            welcome_epoch: self.epoch + 1,
            pacing: self.pacing,
            service,
            handshake_timeout: HANDSHAKE_TIMEOUT,
        };
        let (id, fingerprint, link) =
            transport::master_enroll(stream, &terms, |hello| match hello.claimed {
                Some(claimed) if claimed != next => Err((
                    transport::REJECT_SLOT,
                    format!(
                        "claimed slot {} but the next open slot is {}",
                        claimed.index(),
                        next.index()
                    ),
                )),
                _ => Ok((next, params)),
            })?;
        self.epoch += 1;
        let (side, link_pumps) = link.into_parts();
        let assigned = self.master.add_link(side);
        debug_assert_eq!(assigned, id);
        self.fingerprints.push(fingerprint);
        self.pumps.extend(link_pumps);
        let mut fleet = self.platform.take().map_or_else(Vec::new, |p| p.workers().to_vec());
        fleet.push(params);
        self.platform = Some(Platform::new(fleet).expect("fleet is non-empty after admit"));
        Ok(id)
    }

    /// **Elastic disenrollment**: drop every link whose death flag is
    /// set (heartbeat deadline missed, socket error, or an explicit
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
    /// [`Session::admit`] and every non-empty [`Session::prune_dead`].
    /// Runtimes key their cached resource selection on this — a changed
    /// epoch means the plan must be recomputed before the next run.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of pooled workers.
    pub fn workers(&self) -> usize {
        self.master.workers()
    }

    /// Open a run on workers `0..enrolled`, waking each from its parked
    /// receive with a `RUN_BEGIN` frame carrying `param`. Workers outside
    /// the enrollment stay parked and cost nothing.
    ///
    /// The run is identified by a freshly drawn generation, registered at
    /// every link alongside any other open run's, so several runs may
    /// interleave their frames on the same links and the master
    /// demultiplexes replies by the header's `run` field
    /// ([`MasterEndpoint::recv_deadline`]). The caller contract: every
    /// frame the run's driver sends is stamped with
    /// [`RunEpoch::generation`], its receives are scoped to that
    /// generation, and a worker program that may see overlapping runs
    /// tracks state per generation and replies via
    /// [`WorkerEndpoint::send_in`]. A session type whose worker program
    /// serves one run at a time serializes its own callers.
    ///
    /// At most [`crate::link::MAX_CONCURRENT_RUNS`] runs may be open at
    /// once; the scheduler's admission cap enforces this.
    ///
    /// Lifecycle frames are sent best-effort: a worker that already died
    /// (it panicked mid-previous-run) must surface as the data path's
    /// "worker died" receive failure — or as the worker's own panic at
    /// join time — not as an unrelated send panic here.
    pub fn begin_run(&self, enrolled: usize, param: u32) -> RunEpoch {
        let run = self.next_run_gen();
        // Register before the RUN_BEGIN goes out: the begin frame itself
        // carries the generation (that is how workers learn it), and the
        // first replies may race the registration otherwise.
        self.master.register_run(run);
        let begun = trace_run_begin(run);
        let blocks_at_start = self.master.total_blocks();
        self.send_lifecycle(enrolled, run, run_begin_frame(param));
        RunEpoch { blocks_at_start, run, begun }
    }

    /// Close the run opened by the matching [`Session::begin_run`]: sends
    /// `RUN_END` (stamped with the run's generation) to the enrolled
    /// workers, best-effort like [`Session::begin_run`], then retires the
    /// generation — its data frames are stale again, and anything still
    /// parked in the demux queues is dropped and counted as rejected.
    /// Returns the matrix blocks the port moved while the run was open:
    /// the run's own traffic unless another run overlapped it.
    pub fn finish_run(&self, enrolled: usize, epoch: RunEpoch) -> u64 {
        self.close_run(enrolled, epoch, run_end_frame(), "RUN_END")
    }

    /// Abort the run opened by the matching [`Session::begin_run`]: each
    /// enrolled worker gets a `RUN_ABORT` control frame — which, FIFO
    /// order being per-link, is the last frame of the aborted run it
    /// sees, so it discards that generation's state, keeps its scratch
    /// (and any other open run) intact, and parks once nothing is open.
    /// Frames the workers had already sent back are left un-received;
    /// they carry the retired generation, so every later receive
    /// structurally rejects them. Returns the blocks moved before the
    /// run was killed, as [`Session::finish_run`] counts them.
    pub fn abort_run(&self, enrolled: usize, epoch: RunEpoch) -> u64 {
        self.close_run(enrolled, epoch, run_abort_frame(), "RUN_ABORT")
    }

    fn close_run(&self, enrolled: usize, epoch: RunEpoch, frame: Frame, label: &'static str) -> u64 {
        self.send_lifecycle(enrolled, epoch.run, frame);
        let moved = self.master.total_blocks() - epoch.blocks_at_start;
        self.master.deregister_run(epoch.run);
        trace_run_close(epoch.run, epoch.begun, label);
        moved
    }

    /// Send workers `0..enrolled` a copy of `frame` stamped with `run`.
    fn send_lifecycle(&self, enrolled: usize, run: u32, mut frame: Frame) {
        frame.run = run;
        for idx in 0..enrolled {
            self.master.send_lossy(WorkerId(idx), frame.clone());
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

    /// Set the run-generation counter (the **next** run gets `value + 1`,
    /// modulo the skip-0 rule). A hook for wraparound tests and for
    /// serving layers that checkpoint/restore a long-lived session; never
    /// call it while a run is in flight.
    pub fn force_run_gen(&self, value: u32) {
        self.run_gen.store(value, Ordering::Relaxed);
    }

    /// Total inbound data frames this session's links rejected for
    /// carrying a stale run generation (see [`crate::stats`]).
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
/// master sends a shutdown frame or the connection/channel closes.
pub fn serve_worker<P>(ep: WorkerEndpoint, program: &mut P)
where
    P: FnMut(u32, &WorkerEndpoint) -> RunExit,
{
    loop {
        let frame = match ep.recv() {
            Ok(f) => f,
            Err(_) => return, // master endpoint dropped: implicit shutdown
        };
        match frame.tag.kind {
            FrameKind::Shutdown => return,
            FrameKind::Control if frame.tag.i == RUN_BEGIN => {
                if program(frame.tag.j, &ep) == RunExit::Terminate {
                    return;
                }
            }
            // A stray lifecycle frame while parked is harmless: an abort
            // (or end) broadcast can reach a worker whose program already
            // left the run on its own. Stay parked.
            FrameKind::Control if frame.tag.i == RUN_END || frame.tag.i == RUN_ABORT => {}
            other => unreachable!("{other:?} frame outside a run (tag {:?})", frame.tag),
        }
    }
}

/// Stable identity of a platform + pacing configuration — the bytes a
/// loopback worker presents at enrollment (little-endian `u64`s): two
/// stars agree exactly when every worker's `(c, w, m)` and the time scale
/// are bit-equal.
pub fn fingerprint(platform: &Platform, time_scale: f64) -> Vec<u8> {
    let mut key = Vec::with_capacity(8 * (1 + 3 * platform.len()));
    key.extend(time_scale.to_bits().to_le_bytes());
    for w in platform.workers() {
        for field in [w.c.to_bits(), w.w.to_bits(), w.m as u64] {
            key.extend(field.to_le_bytes());
        }
    }
    key
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
    fn send_in(session: &Session, epoch: &RunEpoch, w: usize, kind: FrameKind, i: usize) {
        let frame =
            Frame::new_in_run(Tag::new(kind, i, 0), epoch.generation(), Bytes::from_static(b"x"));
        session.master().send(WorkerId(w), frame, 1);
    }

    /// Receive worker `w`'s next frame of `epoch`'s run.
    fn recv_in(session: &Session, epoch: &RunEpoch, w: usize) -> Frame {
        let t = Some(std::time::Duration::from_secs(10));
        session.master().recv_timeout(WorkerId(w), epoch.generation(), 1, t).expect("echo").0
    }

    /// One echo run over workers `0..workers`: each is sent one block and
    /// must bounce it back, routed per link and stamped with `param`.
    /// Returns the blocks the run moved.
    fn echo_round(session: &Session, workers: usize, param: u32) -> u64 {
        let epoch = session.begin_run(workers, param);
        for w in 0..workers {
            send_in(session, &epoch, w, FrameKind::BlockA, w);
        }
        for w in 0..workers {
            let frame = recv_in(session, &epoch, w);
            assert_eq!(frame.tag.kind, FrameKind::CResult);
            assert_eq!(frame.tag.i as usize, w, "echo routed per link");
            assert_eq!(frame.tag.j, param, "program saw this run's parameter");
        }
        session.finish_run(workers, epoch)
    }

    /// The deployment the remote-fleet tests run under: a secret, so every
    /// enrollment gate below is exercised authenticated.
    fn fleet() -> Config {
        Config { fleet_secret: b"session-tests".to_vec(), ..Config::default() }
    }

    /// A remote fleet member: dial `endpoint` (on the calling thread, so
    /// dialers reach the listener in the order they are made), then, on a
    /// thread of its own, enroll presenting `claim`/`epoch`/`fp` and
    /// serve echo runs until shutdown. Joins to the welcome's epoch, or
    /// to the kind of the enrollment error. Dials under [`fleet`], as the
    /// session under test accepts.
    fn remote_worker(
        endpoint: &str,
        claim: Option<usize>,
        epoch: u64,
        fp: &'static [u8],
    ) -> thread::JoinHandle<Result<u64, io::ErrorKind>> {
        let stream = transport::connect_with_retry(endpoint, Duration::from_secs(10)).unwrap();
        thread::spawn(move || {
            let (ep, welcome) =
                transport::enroll_with(stream, claim.map(WorkerId), fp, epoch, &fleet())
                    .map_err(|e| e.kind())?;
            serve_worker(ep, &mut echo_program);
            Ok(welcome.epoch)
        })
    }

    #[test]
    fn one_session_serves_many_runs() {
        let session = echo_session(2);
        for run in 0..5u32 {
            // Each run moved exactly its own 4 blocks, although the
            // session's raw counters keep growing.
            assert_eq!(echo_round(&session, 2, run), 4);
        }
        assert_eq!(session.master().total_blocks(), 20);
        assert_eq!(session.shutdown(), 2);
    }

    #[test]
    fn aborted_run_leaves_the_session_serving_and_rejects_leftovers() {
        let session = echo_session(1);

        // Run 1: send a block but abort without receiving the echo — the
        // reply is left in flight, stamped with generation 1.
        let epoch = session.begin_run(1, 1);
        send_in(&session, &epoch, 0, FrameKind::BlockA, 0);
        session.abort_run(1, epoch);

        // Run 2 on the same session: the leftover generation-1 reply must
        // never surface; the run's own traffic flows normally.
        let epoch = session.begin_run(1, 2);
        send_in(&session, &epoch, 0, FrameKind::BlockA, 5);
        let frame = recv_in(&session, &epoch, 0);
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
        send_in(&session, &epoch, 0, FrameKind::BlockB, 9);
        let frame = recv_in(&session, &epoch, 0);
        assert_eq!(frame.tag.j, 7);
        assert_eq!(session.finish_run(1, epoch), 2);
        // Workers 1 and 2 never saw a frame; shutdown still joins all 3.
        assert_eq!(session.shutdown(), 3);
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
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let w0 = remote_worker(&endpoint, None, 0, b"elastic");
        let mut session =
            Session::accept_remote(&platform, 0.0, &listener, SERVICE_INPROC, &fleet()).unwrap();
        assert_eq!(session.workers(), 1);
        assert_eq!(session.epoch(), 1, "a fresh fleet is generation 1");
        echo_round(&session, 1, 1);
        // Between runs: a new worker dials in and is admitted.
        let w1 = remote_worker(&endpoint, None, 0, b"elastic");
        let id = session
            .admit(&listener, WorkerParams { c: 1.0, w: 1.0, m: 8 }, SERVICE_INPROC)
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
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let workers: Vec<_> =
            (0..2).map(|_| remote_worker(&endpoint, None, 0, b"fleet")).collect();
        let mut session =
            Session::accept_remote(&platform, 0.0, &listener, SERVICE_INPROC, &fleet()).unwrap();
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
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let dial = |epoch: u64| remote_worker(&endpoint, None, epoch, b"fleet");
        let w0 = dial(0);
        let mut session =
            Session::accept_remote(&platform, 0.0, &listener, SERVICE_INPROC, &fleet()).unwrap();
        // Grow the fleet once so the current epoch moves past 1.
        let w1 = dial(0);
        session.admit(&listener, WorkerParams { c: 1.0, w: 1.0, m: 8 }, SERVICE_INPROC).unwrap();
        assert_eq!(session.epoch(), 2);
        // A replay from generation 1 is rejected by the admission gate…
        let stale = dial(1);
        let err = session
            .admit(&listener, WorkerParams { c: 1.0, w: 1.0, m: 8 }, SERVICE_INPROC)
            .expect_err("stale-epoch dialer must not be admitted");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(stale.join().unwrap(), Err(io::ErrorKind::PermissionDenied));
        assert_eq!(session.workers(), 2, "the stale dialer got no slot");
        assert_eq!(session.epoch(), 2, "a rejected dialer is not a membership change");
        // …while a fresh worker enrolls right after, at generation 3.
        let w2 = dial(0);
        let id = session
            .admit(&listener, WorkerParams { c: 1.0, w: 1.0, m: 8 }, SERVICE_INPROC)
            .unwrap();
        assert_eq!(id, WorkerId(2));
        assert_eq!(session.epoch(), 3);
        drop(session);
        assert_eq!(w0.join().unwrap(), Ok(1));
        assert_eq!(w1.join().unwrap(), Ok(2));
        assert_eq!(w2.join().unwrap(), Ok(3), "the newcomer's welcome carries the new epoch");
    }

    /// The one master-side enrollment, through both of its callers — the
    /// star accept loop and `Session::admit` — against every refusal its
    /// slot/fingerprint/epoch gates can issue: each bad dialer reads the
    /// `REJECT_*` code naming its gate, the next good hello enrolls, and
    /// the fleet serves a run after every rejection.
    #[test]
    fn enrollment_rejections_are_coded_and_leave_the_fleet_serviceable() {
        use transport::{REJECT_EPOCH, REJECT_FINGERPRINT, REJECT_SLOT};
        let platform = Platform::homogeneous(2, 1.0, 1.0, 8).unwrap();
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        // A dialer the master must refuse: walks the handshake by hand and
        // joins to the code of the REJECT frame it is answered with.
        let refused = {
            let endpoint = endpoint.clone();
            move |claim: Option<usize>, epoch: u64, fp: &'static [u8]| {
                let wait = Duration::from_secs(10);
                let mut conn = transport::connect_with_retry(&endpoint, wait).unwrap();
                thread::spawn(move || {
                    let cap = transport::MAX_HANDSHAKE_WIRE_LEN;
                    conn.set_read_timeout(Some(wait)).unwrap();
                    let challenge = conn.recv_frame_capped(cap).unwrap().expect("challenge");
                    let challenge = transport::parse_challenge(&challenge).unwrap();
                    let hello = transport::Hello {
                        claimed: claim.map(WorkerId),
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
        // The star accept loop (fingerprint policy on): slot 0 fills, four
        // dialers are refused in turn, then slot 1 fills and the loop ends.
        let script = {
            let (endpoint, refused) = (endpoint.clone(), refused.clone());
            thread::spawn(move || {
                let w0 = remote_worker(&endpoint, Some(0), 0, b"fleet");
                for (claim, epoch, fp, code) in [
                    (Some(0), 0, b"fleet" as &[u8], REJECT_SLOT),
                    (Some(9), 0, b"fleet", REJECT_SLOT),
                    (None, 0, b"alien", REJECT_FINGERPRINT),
                    (None, 7, b"fleet", REJECT_EPOCH),
                ] {
                    assert_eq!(refused(claim, epoch, fp).join().unwrap(), code, "star: {claim:?}");
                }
                vec![w0, remote_worker(&endpoint, None, 0, b"fleet")]
            })
        };
        let mut session = Session::accept_star(
            &listener,
            &platform,
            0.0,
            SERVICE_INPROC,
            Some((b"fleet", Vec::new())),
            HANDSHAKE_TIMEOUT,
            &fleet(),
        )
        .unwrap();
        let mut workers = script.join().unwrap();
        echo_round(&session, 2, 1);

        // `Session::admit`: the next open slot is 2 and the epoch is 1.
        let params = WorkerParams { c: 1.0, w: 1.0, m: 8 };
        for (claim, epoch, code) in
            [(Some(0), 0, REJECT_SLOT), (Some(9), 0, REJECT_SLOT), (None, 7, REJECT_EPOCH)]
        {
            let dialer = refused(claim, epoch, b"elastic");
            session.admit(&listener, params, SERVICE_INPROC).expect_err("must be refused");
            assert_eq!(dialer.join().unwrap(), code, "admit: {claim:?} at epoch {epoch}");
            assert_eq!((session.workers(), session.epoch()), (2, 1), "no membership change");
            echo_round(&session, 2, 2);
        }
        workers.push(remote_worker(&endpoint, Some(2), 0, b"elastic"));
        assert_eq!(session.admit(&listener, params, SERVICE_INPROC).unwrap(), WorkerId(2));
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
        session.force_run_gen(u32::MAX - 1);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let epoch = session.begin_run(1, 0);
            send_in(&session, &epoch, 0, FrameKind::BlockA, 0);
            let frame = recv_in(&session, &epoch, 0);
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
                let f = recv_in(&session, epoch, 0);
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
        let f = recv_in(&session, &epoch, 0);
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
        session.abort_run(1, run_a);

        // Run B is untouched: its exchange completes bit-for-bit.
        send_in(&session, &run_b, 0, FrameKind::BlockA, 2);
        assert_eq!(recv_in(&session, &run_b, 0).tag.i, 2);
        session.finish_run(1, run_b);

        // Run A's orphaned echo was either retired from the demux queue
        // or rejected at admission — counted either way.
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
        // Every worker enrolled with the platform fingerprint.
        for fp in session.worker_fingerprints() {
            assert!(!fp.is_empty(), "loopback workers enroll with a fingerprint");
        }
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
        send_in(&session, &epoch, 0, FrameKind::BlockB, 4);
        let frame = recv_in(&session, &epoch, 0);
        assert_eq!(frame.tag.j, 9);
        assert_eq!(session.finish_run(1, epoch), 2);
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
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
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
                    transport::enroll_with_retry(&endpoint, wait, None, b"real-worker", &fleet())
                        .unwrap();
                assert_eq!(welcome.worker, WorkerId(0));
                serve_worker(ep, &mut echo_program);
            })
        };
        let silence_budget = Duration::from_millis(200);
        let session =
            Session::accept_star(&listener, &platform, 0.0, 42, None, silence_budget, &fleet())
                .unwrap();
        assert_eq!(session.worker_fingerprints()[0], b"real-worker".to_vec());
        assert_eq!(echo_round(&session, 1, 5), 2);
        drop(session); // delivers shutdown: the worker thread exits
        noise.join().unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn fingerprints_distinguish_worker_params() {
        let a = Platform::homogeneous(2, 1.0, 1.0, 8).unwrap();
        let b = Platform::homogeneous(2, 1.0, 1.0, 9).unwrap();
        assert_ne!(fingerprint(&a, 0.0), fingerprint(&b, 0.0));
        assert_eq!(fingerprint(&a, 0.0), fingerprint(&a.clone(), 0.0));
    }
}
