//! A bandwidth-paced master↔worker link.
//!
//! Each worker `P_i` has its own link of cost `c_i` per block. Pacing
//! multiplies the model time by `time_scale` wall seconds per model time
//! unit — `time_scale = 0` keeps ordering and port-exclusion semantics
//! while running tests at full speed; a positive scale makes wall-clock
//! measurements reflect the `(c, w)` calibration.
//!
//! A link also enforces the run protocol's data-plane rule: it keeps the
//! set of run generations the session has open ([`MAX_CONCURRENT_RUNS`]
//! identical slots), rejects any inbound data frame stamped with a
//! generation outside it, and routes the admitted ones to the collector
//! of the run they belong to ([`MasterSide::recv_wait_run`]). Outbound
//! frames travel exactly as their driver stamped them.

use crate::frame::Frame;
use crate::stats::LinkStats;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvError, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many run generations a link can serve **concurrently** — the hard
/// ceiling on a scheduler's dispatcher count (see [`crate::sched`]).
pub const MAX_CONCURRENT_RUNS: usize = 15;

/// The set of run generations a link currently serves: a fixed array of
/// identical atomic slots (0 = free), so the per-frame admission check is
/// a handful of relaxed loads — no lock on the data path. A run's
/// generation is registered when the session opens it and released when
/// it ends or aborts; a data frame is admitted when its generation
/// matches a slot.
struct ActiveRuns {
    slots: [AtomicU32; MAX_CONCURRENT_RUNS],
}

impl ActiveRuns {
    fn new() -> Self {
        ActiveRuns { slots: std::array::from_fn(|_| AtomicU32::new(0)) }
    }

    /// Claim a free slot for `run`. Panics when every slot is taken —
    /// the scheduler's inflight cap (≤ [`MAX_CONCURRENT_RUNS`]) makes
    /// that a bug, not a load condition.
    fn register(&self, run: u32) {
        assert_ne!(run, 0, "generation 0 is the run-less sentinel");
        for slot in &self.slots {
            if slot.compare_exchange(0, run, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                return;
            }
        }
        panic!("more than {MAX_CONCURRENT_RUNS} concurrent run generations on one link");
    }

    /// Release `run`'s slot (no-op if it was never registered).
    fn deregister(&self, run: u32) {
        for slot in &self.slots {
            if slot.compare_exchange(run, 0, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                return;
            }
        }
    }

    /// Whether `run` is one of the currently-served generations (the
    /// run-less sentinel 0 never is).
    fn contains(&self, run: u32) -> bool {
        run != 0 && self.slots.iter().any(|slot| slot.load(Ordering::Acquire) == run)
    }
}

/// Per-generation inbound frame router for interleaved runs.
///
/// Concurrent run drivers all receive from the same link channel; a frame
/// pulled for generation `g1` may belong to `g2`. The demux gives each
/// generation its own queue: one caller at a time (the *puller*) drains
/// the channel, keeps frames of its own generation, stashes frames of
/// other live generations for their collectors, and wakes the waiters.
/// Only the run-less [`MasterSide::recv`] of a bare network bypasses it.
struct RunDemux {
    queues: HashMap<u32, VecDeque<Frame>>,
    /// Whether some thread currently owns the channel-draining role.
    pulling: bool,
}

/// What one channel pull produced for a caller waiting on a generation.
enum Pulled {
    /// A frame this caller should consume (its generation, or control
    /// traffic — which is never queued, it has no owning generation).
    Mine(Frame),
    /// An admissible frame of another live generation: stash it.
    Other(Frame),
    /// The deadline elapsed with no admissible frame.
    TimedOut,
    /// The channel closed (worker exit or pump death).
    Closed,
}

/// Shared pacing configuration of the whole network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pacing {
    /// Wall seconds per model time unit (0 = no pacing).
    pub time_scale: f64,
}

/// Matrix blocks a frame contributes to the per-link statistics: the
/// metered count for block frames (a run frame carries several), zero for
/// control traffic even when the caller paces it.
fn metered_blocks(frame: &Frame, blocks: u64) -> u64 {
    if frame.tag.kind.is_block() {
        blocks
    } else {
        0
    }
}

impl Pacing {
    /// No pacing: transfers complete as fast as channels allow.
    pub const OFF: Pacing = Pacing { time_scale: 0.0 };

    /// Pace `model_time` units, blocking the calling thread.
    pub fn pace(&self, model_time: f64) {
        if self.time_scale > 0.0 && model_time > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(model_time * self.time_scale));
        }
    }
}

/// One directional channel pair plus metering for a master↔worker link,
/// built whole and then [`Link::split`] into the [`MasterSide`] the
/// [`crate::endpoint::MasterEndpoint`] drives under its one-port guard and
/// the [`WorkerSide`] a worker (or a socket link's pump threads) owns.
pub struct Link {
    /// Per-block communication cost `c_i` of this link (model time units).
    pub c: f64,
    pacing: Pacing,
    stats: LinkStats,
    to_worker_tx: Sender<Frame>,
    to_worker_rx: Receiver<Frame>,
    to_master_tx: Sender<Frame>,
    to_master_rx: Receiver<Frame>,
}

impl Link {
    /// Build a link with per-block cost `c` and the given pacing.
    pub fn new(c: f64, pacing: Pacing) -> Self {
        let (to_worker_tx, to_worker_rx) = channel();
        let (to_master_tx, to_master_rx) = channel();
        Link {
            c,
            pacing,
            stats: LinkStats::new(),
            to_worker_tx,
            to_worker_rx,
            to_master_tx,
            to_master_rx,
        }
    }

    /// The link's statistics handle.
    pub fn stats(&self) -> LinkStats {
        self.stats.clone()
    }

    /// Split into master-facing and worker-facing halves.
    pub fn split(self) -> (MasterSide, WorkerSide) {
        let stats = self.stats.clone();
        (
            MasterSide {
                c: self.c,
                pacing: self.pacing,
                stats: stats.clone(),
                tx: self.to_worker_tx,
                rx: std::sync::Mutex::new(self.to_master_rx),
                dead: Arc::new(AtomicBool::new(false)),
                runs: ActiveRuns::new(),
                demux: std::sync::Mutex::new(RunDemux { queues: HashMap::new(), pulling: false }),
                demux_cv: std::sync::Condvar::new(),
            },
            WorkerSide {
                rx: self.to_worker_rx,
                tx: self.to_master_tx,
            },
        )
    }
}

/// Master-facing half of a link.
pub struct MasterSide {
    /// Per-block cost `c_i`.
    pub c: f64,
    pacing: Pacing,
    stats: LinkStats,
    tx: Sender<Frame>,
    /// The worker→master channel. Behind a mutex only because an mpsc
    /// `Receiver` is not `Sync` and concurrent collectors share this side;
    /// actual access is already exclusive — the demux admits one puller
    /// at a time, and the run-less [`MasterSide::recv`] is only for bare
    /// networks that open no run.
    rx: std::sync::Mutex<Receiver<Frame>>,
    /// Sticky liveness verdict for this link. Set by the failure-aware
    /// scheduling layer (deadline expiry, failed send) or by a socket
    /// link's in-pump when the stream dies; once dead, a link is never
    /// used again — a wedged worker that wakes up late must not be able
    /// to inject stale frames into a later exchange.
    dead: Arc<AtomicBool>,
    /// The run generations this link is currently serving (all slots free
    /// = no run in progress). Outbound frames go out exactly as their
    /// driver stamped them. Inbound *data* frames carrying a non-zero
    /// generation outside the active set are structurally rejected —
    /// counted in [`LinkStats`], never delivered, never metered. This is
    /// the first-class defence the sticky-dead flag used to approximate:
    /// even a frame from a link nobody marked dead cannot cross a run
    /// boundary.
    runs: ActiveRuns,
    /// Inbound per-generation router for interleaved runs; see
    /// [`RunDemux`].
    demux: std::sync::Mutex<RunDemux>,
    demux_cv: std::sync::Condvar,
}

impl MasterSide {
    /// Whether this link has been declared dead (see [`MasterSide::mark_dead`]).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Permanently declare the worker behind this link dead.
    pub fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }

    /// A shared handle to the death flag, for transport pumps that learn
    /// about the peer's fate on their own thread.
    pub(crate) fn death_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.dead)
    }

    /// Register `run` as a live generation: its data frames are admitted
    /// alongside those of every other live run.
    pub(crate) fn register_run(&self, run: u32) {
        self.runs.register(run);
    }

    /// Retire generation `run`: stop admitting its data frames and drop
    /// anything still parked in its demux queue. Leftovers are counted as
    /// stale rejections, so an aborted run's stragglers stay observable
    /// whether they were already pulled or are still in flight.
    pub(crate) fn deregister_run(&self, run: u32) {
        self.runs.deregister(run);
        let mut demux = self.demux.lock().expect("run demux poisoned");
        if let Some(queue) = demux.queues.remove(&run) {
            for _ in 0..queue.len() {
                self.stats.record_stale_rejected();
            }
        }
    }

    /// Admission check for an inbound frame: a data frame must carry one
    /// of the link's active run generations — or, on the run-less receive
    /// of a bare network (`runless_ok`), the unstamped generation 0, which
    /// no run's collector could own; control traffic always passes. A
    /// rejected frame is counted and dropped *before* any metering or
    /// pacing, so the communication-volume counters stay exact.
    fn admit(&self, frame: &Frame, runless_ok: bool) -> bool {
        let admitted = !frame.tag.kind.is_block()
            || self.runs.contains(frame.run)
            || (runless_ok && frame.run == 0);
        if !admitted {
            self.stats.record_stale_rejected();
        }
        admitted
    }

    /// Pace, enqueue and meter one outbound frame. Returns whether the
    /// worker's end of the channel was still open — an undelivered frame
    /// is never metered — and the model-time cost.
    fn deliver(&self, frame: Frame, blocks: u64) -> (bool, f64) {
        let start = Instant::now();
        let cost = blocks as f64 * self.c;
        self.pacing.pace(cost);
        let wire_len = frame.wire_len();
        let metered = metered_blocks(&frame, blocks);
        let delivered = self.tx.send(frame).is_ok();
        if delivered {
            self.stats.record_to_worker(wire_len, metered);
            self.stats.record_port_busy(start.elapsed().as_nanos() as u64);
        }
        (delivered, cost)
    }

    /// Paced send; returns model-time cost. Panics on a closed link.
    pub fn send(&self, frame: Frame, blocks: u64) -> f64 {
        let (delivered, cost) = self.deliver(frame, blocks);
        assert!(delivered, "worker endpoint dropped");
        cost
    }

    /// Best-effort send for lifecycle/teardown traffic: a closed link
    /// (the worker thread already exited) is silently ignored instead of
    /// panicking, and nothing is metered for the undelivered frame.
    pub fn send_lossy(&self, frame: Frame, blocks: u64) -> f64 {
        self.deliver(frame, blocks).1
    }

    /// Failure-aware send: `Some(cost)` when the frame was delivered,
    /// `None` when the link is (or just turned out to be) dead — the
    /// channel closed because the worker exited or its transport pump
    /// died. A link already known dead is paced and metered for nothing
    /// — a declared-dead worker costs no model time.
    pub fn try_send(&self, frame: Frame, blocks: u64) -> Option<f64> {
        if self.is_dead() {
            return None;
        }
        let (delivered, cost) = self.deliver(frame, blocks);
        if !delivered {
            self.mark_dead();
            return None;
        }
        Some(cost)
    }

    /// Run-less paced receive for a bare network that opens no run: blocks
    /// until the worker produced an admissible frame, reading the channel
    /// directly (no demux). Must not race a run-scoped receive on the
    /// same link.
    pub fn recv(&self, blocks: u64) -> Result<(Frame, f64), RecvError> {
        let rx = self.rx.lock().expect("link receiver poisoned");
        loop {
            let frame = rx.recv()?;
            if self.admit(&frame, true) {
                drop(rx);
                return Ok(self.finish_recv(frame, blocks));
            }
        }
    }

    /// Phase 1 of a run's receive: return the next admissible frame
    /// stamped `run` (or control traffic), parking on the channel's own
    /// timed receive (condvar parking, no polling) without paying any
    /// transfer cost. Frames of *other* live generations pulled en route
    /// are stashed in their demux queues and their waiters woken. `None` when `timeout` elapses (or, with
    /// `timeout == None`, only when the channel closes — worker death).
    /// The caller settles the transfer with [`MasterSide::finish_recv`].
    ///
    /// Only one thread at a time drains the channel (the *puller*); the
    /// rest wait on their queues. This keeps frame order per generation
    /// exactly as the worker sent it.
    pub fn recv_wait_run(&self, run: u32, timeout: Option<Duration>) -> Option<Frame> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut demux = self.demux.lock().expect("run demux poisoned");
        loop {
            if let Some(frame) = demux.queues.get_mut(&run).and_then(VecDeque::pop_front) {
                return Some(frame);
            }
            if demux.pulling {
                // Someone else owns the channel; wait for them to stash a
                // frame for us or release the puller role.
                demux = match deadline {
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return None;
                        }
                        self.demux_cv
                            .wait_timeout(demux, d - now)
                            .expect("run demux poisoned")
                            .0
                    }
                    None => self.demux_cv.wait(demux).expect("run demux poisoned"),
                };
                continue;
            }
            demux.pulling = true;
            drop(demux);
            let pulled = self.pull_admissible(run, deadline);
            demux = self.demux.lock().expect("run demux poisoned");
            demux.pulling = false;
            // Wake everyone: a stashed frame may be theirs, and at least
            // one waiter must take over the puller role.
            self.demux_cv.notify_all();
            match pulled {
                Pulled::Mine(frame) => return Some(frame),
                Pulled::Other(frame) => {
                    demux.queues.entry(frame.run).or_default().push_back(frame);
                }
                Pulled::TimedOut | Pulled::Closed => return None,
            }
        }
    }

    /// Drain the channel until one admissible frame surfaces, classifying
    /// it for the caller waiting on generation `run`. Runs *outside* the
    /// demux lock so stashing waiters can drain their queues meanwhile.
    fn pull_admissible(&self, run: u32, deadline: Option<Instant>) -> Pulled {
        let rx = self.rx.lock().expect("link receiver poisoned");
        loop {
            let frame = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Pulled::TimedOut;
                    }
                    match rx.recv_timeout(d - now) {
                        Ok(frame) => frame,
                        Err(RecvTimeoutError::Timeout) => return Pulled::TimedOut,
                        Err(RecvTimeoutError::Disconnected) => return Pulled::Closed,
                    }
                }
                None => match rx.recv() {
                    Ok(frame) => frame,
                    Err(RecvError) => return Pulled::Closed,
                },
            };
            if !self.admit(&frame, false) {
                continue;
            }
            // Control traffic has no owning generation and matrix workers
            // never send it unsolicited: hand it to whoever pulled it.
            if frame.run == run || !frame.tag.kind.is_block() {
                return Pulled::Mine(frame);
            }
            return Pulled::Other(frame);
        }
    }

    /// Phase 2 of a receive: meter and pace a frame already pulled off
    /// the channel (by [`MasterSide::recv_wait_run`] or a raw channel read).
    pub fn finish_recv(&self, frame: Frame, blocks: u64) -> (Frame, f64) {
        let start = Instant::now();
        let cost = blocks as f64 * self.c;
        self.pacing.pace(cost);
        self.stats
            .record_to_master(frame.wire_len(), metered_blocks(&frame, blocks));
        self.stats.record_port_busy(start.elapsed().as_nanos() as u64);
        (frame, cost)
    }

    /// Statistics handle for this link.
    pub fn stats(&self) -> LinkStats {
        self.stats.clone()
    }
}

/// Worker-facing half of a link.
pub struct WorkerSide {
    rx: Receiver<Frame>,
    tx: Sender<Frame>,
}

impl WorkerSide {
    /// Blocking receive of the next master frame.
    pub fn recv(&self) -> Result<Frame, RecvError> {
        self.rx.recv()
    }

    /// Disassemble into the raw channel halves, so the socket transport's
    /// pump threads can own each direction independently (the receiver of
    /// master→worker frames and the sender of worker→master frames).
    pub(crate) fn into_channels(self) -> (Receiver<Frame>, Sender<Frame>) {
        (self.rx, self.tx)
    }

    /// Enqueue a result for the master (un-paced; the master pays on pull).
    pub fn send(&self, frame: Frame) {
        let _ = self.tx.send(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameKind, Tag};
    use bytes::Bytes;

    fn blk(kind: FrameKind, i: usize, j: usize) -> Frame {
        Frame::new(Tag::new(kind, i, j), Bytes::from_static(&[1, 2, 3]))
    }

    #[test]
    fn push_pull_roundtrip() {
        let (master, worker) = Link::new(2.0, Pacing::OFF).split();
        let cost = master.send(blk(FrameKind::BlockA, 1, 2), 1);
        assert_eq!(cost, 2.0);
        let got = worker.recv().unwrap();
        assert_eq!(got.tag, Tag::new(FrameKind::BlockA, 1, 2));
        worker.send(blk(FrameKind::CResult, 1, 2));
        let (res, cost) = master.recv(1).unwrap();
        assert_eq!(res.tag.kind, FrameKind::CResult);
        assert_eq!(cost, 2.0);
        let snap = master.stats().snapshot();
        assert_eq!(snap.blocks_to_worker, 1);
        assert_eq!(snap.blocks_to_master, 1);
    }

    #[test]
    fn split_halves_communicate() {
        let (master, worker) = Link::new(1.0, Pacing::OFF).split();
        master.send(blk(FrameKind::BlockB, 0, 5), 1);
        let f = worker.recv().unwrap();
        assert_eq!(f.tag.j, 5);
        worker.send(blk(FrameKind::CResult, 0, 5));
        let (f, _) = master.recv(1).unwrap();
        assert_eq!(f.tag.kind, FrameKind::CResult);
        assert_eq!(master.stats().snapshot().total_blocks(), 2);
    }

    #[test]
    fn pacing_sleeps_roughly_right() {
        let (master, _worker) = Link::new(0.01, Pacing { time_scale: 1.0 }).split();
        let start = Instant::now();
        master.send(blk(FrameKind::BlockA, 0, 0), 2); // 0.02 s
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.02, "pacing too short: {elapsed}");
        assert!(elapsed < 0.5, "pacing absurdly long: {elapsed}");
    }

    /// A `CResult` frame stamped with run generation `run`.
    fn result_in(run: u32, i: usize, j: usize) -> Frame {
        Frame::new_in_run(Tag::new(FrameKind::CResult, i, j), run, Bytes::from_static(&[1, 2, 3]))
    }

    #[test]
    fn outbound_frames_are_stamped_and_stale_data_frames_rejected() {
        let (master, worker) = Link::new(1.0, Pacing::OFF).split();
        master.register_run(3);

        // Outbound: the link forwards the generation the driver stamped.
        let out = Frame::new_in_run(Tag::new(FrameKind::BlockA, 1, 2), 3, Bytes::new());
        master.send(out, 1);
        assert_eq!(worker.recv().unwrap().run, 3);

        // A stale data frame (previous generation) queued ahead of a good
        // one is dropped — counted, not delivered, not metered.
        worker.send(result_in(2, 9, 9));
        worker.send(result_in(3, 1, 2));
        let t = Some(Duration::from_secs(5));
        let got = master.recv_wait_run(3, t).unwrap();
        assert_eq!(got.tag, Tag::new(FrameKind::CResult, 1, 2));
        master.finish_recv(got, 1);
        let snap = master.stats().snapshot();
        assert_eq!(snap.stale_rejected, 1);
        assert_eq!(snap.blocks_to_master, 1, "stale frame must not be metered");

        // Control traffic passes regardless of generation.
        let mut ctl = Frame::new(Tag { kind: FrameKind::Control, i: 7, j: 0 }, Bytes::new());
        ctl.run = 55;
        worker.send(ctl);
        assert_eq!(master.recv_wait_run(3, t).unwrap().tag.i, 7);

        // The receive still honors its timeout on an all-stale queue.
        worker.send(result_in(1, 4, 4));
        assert!(master.recv_wait_run(3, Some(Duration::from_millis(20))).is_none());
        assert_eq!(master.stats().snapshot().stale_rejected, 2);
    }

    #[test]
    fn registered_job_generations_are_admitted_and_prestamps_survive() {
        let (master, worker) = Link::new(1.0, Pacing::OFF).split();
        master.register_run(7);
        master.register_run(9);

        // A frame pre-stamped with one live generation keeps its stamp.
        let mut out = blk(FrameKind::BlockA, 1, 2);
        out.run = 7;
        master.send(out, 1);
        assert_eq!(worker.recv().unwrap().run, 7);

        // Data frames of either live generation are admitted; an alien
        // generation — or none at all — is rejected and counted.
        worker.send(result_in(9, 5, 0));
        worker.send(result_in(7, 6, 0));
        worker.send(result_in(42, 8, 8));
        worker.send(result_in(0, 8, 8));
        let t = Some(Duration::from_secs(5));
        let brief = Some(Duration::from_millis(10));
        assert_eq!(master.recv_wait_run(9, t).unwrap().tag.i, 5);
        assert_eq!(master.recv_wait_run(7, t).unwrap().tag.i, 6);
        assert!(master.recv_wait_run(7, brief).is_none());
        assert_eq!(master.stats().snapshot().stale_rejected, 2);

        // After deregistering, generation 7 is stale again.
        master.deregister_run(7);
        worker.send(result_in(7, 3, 3));
        assert!(master.recv_wait_run(9, brief).is_none());
        assert_eq!(master.stats().snapshot().stale_rejected, 3);
    }

    #[test]
    fn recv_wait_run_routes_frames_to_their_generation() {
        let (master, worker) = Link::new(1.0, Pacing::OFF).split();
        master.register_run(11);
        master.register_run(12);

        // Interleave frames of two generations; each collector must see
        // only its own, in the order the worker sent them.
        for (run, i) in [(12u32, 0usize), (11, 1), (12, 2), (11, 3)] {
            let mut f = blk(FrameKind::CResult, i, 0);
            f.run = run;
            worker.send(f);
        }
        let t = Duration::from_secs(5);
        // The gen-11 collector pulls first: it must skip (stash) the
        // gen-12 frames without dropping them.
        assert_eq!(master.recv_wait_run(11, Some(t)).unwrap().tag.i, 1);
        assert_eq!(master.recv_wait_run(11, Some(t)).unwrap().tag.i, 3);
        assert_eq!(master.recv_wait_run(12, Some(t)).unwrap().tag.i, 0);
        assert_eq!(master.recv_wait_run(12, Some(t)).unwrap().tag.i, 2);
        assert_eq!(master.stats().snapshot().stale_rejected, 0);

        // Timeout with nothing pending.
        assert!(master.recv_wait_run(11, Some(Duration::from_millis(10))).is_none());

        // Retiring a generation drops and counts its stashed leftovers.
        let mut leftover = blk(FrameKind::CResult, 9, 0);
        leftover.run = 12;
        worker.send(leftover);
        assert!(master.recv_wait_run(11, Some(Duration::from_millis(10))).is_none());
        master.deregister_run(12);
        assert_eq!(master.stats().snapshot().stale_rejected, 1);
    }

    #[test]
    fn concurrent_collectors_each_get_their_own_frames() {
        let (master, worker) = Link::new(1.0, Pacing::OFF).split();
        master.register_run(21);
        master.register_run(22);
        let master = Arc::new(master);
        let handles: Vec<_> = [21u32, 22]
            .into_iter()
            .map(|run| {
                let m = Arc::clone(&master);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..50 {
                        let f = m.recv_wait_run(run, Some(Duration::from_secs(10))).unwrap();
                        assert_eq!(f.run, run);
                        seen.push(f.tag.i);
                    }
                    seen
                })
            })
            .collect();
        for i in 0..50 {
            for run in [21u32, 22] {
                let mut f = blk(FrameKind::CResult, i, 0);
                f.run = run;
                worker.send(f);
            }
        }
        for h in handles {
            let seen = h.join().unwrap();
            // Per-generation order is exactly the send order.
            assert_eq!(seen, (0..50).map(|i| i as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fifo_frame_order_preserved() {
        let (master, worker) = Link::new(1.0, Pacing::OFF).split();
        for k in 0..10 {
            master.send(blk(FrameKind::BlockA, k, 0), 1);
        }
        for k in 0..10 {
            assert_eq!(worker.recv().unwrap().tag.i, k as u32);
        }
    }
}
