//! A bandwidth-paced master↔worker link.
//!
//! Each worker `P_i` has its own link of cost `c_i` per block. Pacing
//! multiplies the model time by `time_scale` wall seconds per model time
//! unit — `time_scale = 0` keeps ordering and port-exclusion semantics
//! while running tests at full speed; a positive scale makes wall-clock
//! measurements reflect the `(c, w)` calibration.
//!
//! A link also enforces the run protocol's data-plane rule. Every frame
//! the worker sends is filed where it arrives, in the link's inbox: under
//! its run generation when the session has that generation open (any
//! number at once), with the unowned traffic when it is
//! unstamped or control, and otherwise — a data frame of a generation
//! that is not open — counted as stale and dropped. Each run's collector
//! takes its own queue ([`MasterSide::recv_wait_run`]) and is the only one
//! its arrivals wake. Outbound frames travel exactly as their driver
//! stamped them.

use crate::frame::Frame;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The worker's frames the master has not taken yet, filed by generation
/// as they arrive.
#[derive(Default)]
struct Inbox {
    /// One queue per open run generation.
    runs: HashMap<u32, Queue>,
    /// Unstamped frames (generation 0) and control frames of no open
    /// generation: any receiver may take them.
    unowned: Queue,
    /// The worker's half is gone: nothing more will arrive.
    closed: bool,
    /// Data frames dropped for a generation that is not open: on arrival,
    /// left in a retired generation's queue, or unstamped where a run
    /// receives. Never delivered, never metered.
    stale: u64,
}

/// Frames of one owner, and the receivers parked for them.
#[derive(Default)]
struct Queue {
    frames: VecDeque<Frame>,
    /// Receivers parked on `arrived`; a notify costs a syscall, so none is
    /// made while this is 0.
    waiting: usize,
    /// Shared with the parked receivers, which outlive the queue when its
    /// generation is deregistered under them.
    arrived: Arc<Condvar>,
}

impl Queue {
    fn wake(&self) {
        if self.waiting > 0 {
            self.arrived.notify_all();
        }
    }
}

impl Inbox {
    /// The queue a receiver of generation `run` parks on: its own, or the
    /// unowned one when `run` is not open.
    fn queue(&mut self, run: u32) -> &mut Queue {
        let Inbox { runs, unowned, .. } = self;
        runs.get_mut(&run).unwrap_or(unowned)
    }

    fn wake_all(&self) {
        self.runs.values().chain([&self.unowned]).for_each(Queue::wake);
    }
}

/// The sending end of a link's worker→master direction: held by the
/// [`WorkerSide`], or by a socket link's in-pump.
pub(crate) struct ToMaster {
    inbox: Arc<Mutex<Inbox>>,
}

impl ToMaster {
    /// File `frame` in the inbox. Returns `false` once the master's half is
    /// gone.
    pub(crate) fn send(&self, frame: Frame) -> bool {
        let mut inbox = self.inbox.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(queue) = inbox.runs.get_mut(&frame.run) {
            queue.frames.push_back(frame);
            queue.wake();
        } else if frame.run == 0 || !frame.tag.kind.is_block() {
            inbox.unowned.frames.push_back(frame);
            inbox.wake_all();
        } else {
            inbox.stale += 1;
        }
        // The master's half holds the only other reference.
        Arc::strong_count(&self.inbox) > 1
    }
}

impl Drop for ToMaster {
    fn drop(&mut self) {
        let mut inbox = self.inbox.lock().unwrap_or_else(|e| e.into_inner());
        inbox.closed = true;
        inbox.wake_all();
    }
}

/// Shared pacing configuration of the whole network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pacing {
    /// Wall seconds per model time unit (0 = no pacing).
    pub time_scale: f64,
}

impl Pacing {
    /// Pace `model_time` units, blocking the calling thread.
    pub fn pace(&self, model_time: f64) {
        if self.time_scale > 0.0 && model_time > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(model_time * self.time_scale));
        }
    }
}

/// A link of per-block cost `c` and the given pacing, as its two halves:
/// the [`MasterSide`] the [`crate::endpoint::MasterEndpoint`] drives under
/// its one-port guard, and the [`WorkerSide`] a worker (or a socket link's
/// pump threads) owns.
pub fn link(c: f64, pacing: Pacing) -> (MasterSide, WorkerSide) {
    let (tx, rx) = channel();
    let inbox = Arc::new(Mutex::new(Inbox::default()));
    let to_master = ToMaster { inbox: Arc::clone(&inbox) };
    let dead = Arc::new(AtomicBool::new(false));
    (MasterSide { c, pacing, tx, inbox, dead }, WorkerSide { rx, tx: to_master })
}

/// Master-facing half of a link.
pub struct MasterSide {
    /// Per-block cost `c_i`.
    c: f64,
    pacing: Pacing,
    tx: Sender<Frame>,
    /// Where the worker's frames wait, filed by generation. A data frame
    /// stamped with a generation that is not open never gets in — counted
    /// as stale, never delivered, never metered — so even a frame from a
    /// link nobody marked dead cannot cross a run boundary.
    inbox: Arc<Mutex<Inbox>>,
    /// Sticky liveness verdict for this link. Set by the failure-aware
    /// scheduling layer (deadline expiry, failed send) or by a socket
    /// link's in-pump when the stream dies; once dead, a link is never
    /// used again — a wedged worker that wakes up late must not be able
    /// to inject stale frames into a later exchange.
    dead: Arc<AtomicBool>,
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

    fn inbox(&self) -> std::sync::MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open generation `run` on this link: its frames are filed in a
    /// queue of their own, alongside those of every other open run.
    pub(crate) fn register_run(&self, run: u32) {
        assert_ne!(run, 0, "generation 0 is the run-less sentinel");
        self.inbox().runs.insert(run, Queue::default());
    }

    /// Retire generation `run`: its later data frames are stale, and so is
    /// anything still in its queue — counted, so an aborted run's
    /// stragglers stay observable whether they arrived before or after.
    pub(crate) fn deregister_run(&self, run: u32) {
        let mut inbox = self.inbox();
        if let Some(queue) = inbox.runs.remove(&run) {
            inbox.stale += queue.frames.len() as u64;
        }
    }

    /// Data frames this link dropped for a generation that is not open.
    pub fn stale_rejected(&self) -> u64 {
        self.inbox().stale
    }

    /// Pace the transfer of `blocks` blocks over this link; returns its
    /// model-time cost `blocks · c`. Sends and receives both pay it.
    pub fn pace(&self, blocks: u64) -> f64 {
        let cost = blocks as f64 * self.c;
        self.pacing.pace(cost);
        cost
    }

    /// Pace and enqueue one outbound frame: `Some(cost)` in model time
    /// when it was delivered, `None` — for a link whose worker already
    /// exited — when it was not.
    pub fn send(&self, frame: Frame, blocks: u64) -> Option<f64> {
        let cost = self.pace(blocks);
        self.tx.send(frame).ok()?;
        Some(cost)
    }

    /// The next frame of generation `run` — else the next unowned one (a
    /// data frame stamped 0 there is stale to a run, and taken by the
    /// run-less receive, `run == 0`) — parking until one arrives without
    /// paying any transfer cost ([`MasterSide::pace`] settles that).
    /// `None` when `timeout` elapses or the worker's half is gone with
    /// nothing left to take. Frames of one generation come out in the
    /// order the worker sent them.
    pub fn recv_wait_run(&self, run: u32, timeout: Option<Duration>) -> Option<Frame> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut inbox = self.inbox();
        loop {
            if let Some(frame) = inbox.runs.get_mut(&run).and_then(|q| q.frames.pop_front()) {
                return Some(frame);
            }
            if let Some(frame) = inbox.unowned.frames.pop_front() {
                if run != 0 && frame.run == 0 && frame.tag.kind.is_block() {
                    inbox.stale += 1;
                    continue;
                }
                return Some(frame);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if inbox.closed || left == Some(Duration::ZERO) {
                return None;
            }
            let queue = inbox.queue(run);
            queue.waiting += 1;
            let arrived = Arc::clone(&queue.arrived);
            inbox = match left {
                Some(left) => arrived.wait_timeout(inbox, left).unwrap_or_else(PoisonError::into_inner).0,
                None => arrived.wait(inbox).unwrap_or_else(PoisonError::into_inner),
            };
            // The generation may have been deregistered meanwhile.
            let queue = inbox.queue(run);
            if Arc::ptr_eq(&queue.arrived, &arrived) {
                queue.waiting -= 1;
            }
        }
    }
}

/// Worker-facing half of a link.
pub struct WorkerSide {
    rx: Receiver<Frame>,
    tx: ToMaster,
}

impl WorkerSide {
    /// Blocking receive of the next master frame.
    pub fn recv(&self) -> Result<Frame, RecvError> {
        self.rx.recv()
    }

    /// Disassemble into the receiver of master→worker frames and the
    /// sender of worker→master ones, so the socket transport's pump
    /// threads can own each direction independently.
    pub(crate) fn split(self) -> (Receiver<Frame>, ToMaster) {
        (self.rx, self.tx)
    }

    /// Enqueue a result for the master (un-paced; the master pays on pull).
    pub fn send(&self, frame: Frame) {
        self.tx.send(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameKind, Tag};
    use bytes::Bytes;

    impl Pacing {
        /// No pacing: transfers complete as fast as channels allow.
        pub(crate) const OFF: Pacing = Pacing { time_scale: 0.0 };
    }

    fn blk(kind: FrameKind, i: usize, j: usize) -> Frame {
        Frame::new(Tag::new(kind, i, j), Bytes::from_static(&[1, 2, 3]))
    }

    #[test]
    fn push_pull_roundtrip() {
        let (master, worker) = link(2.0, Pacing::OFF);
        assert_eq!(master.send(blk(FrameKind::BlockA, 1, 2), 1), Some(2.0));
        let got = worker.recv().unwrap();
        assert_eq!(got.tag, Tag::new(FrameKind::BlockA, 1, 2));
        worker.send(blk(FrameKind::CResult, 1, 2));
        let res = master.recv_wait_run(0, None).unwrap();
        assert_eq!(res.tag.kind, FrameKind::CResult);
        assert_eq!(master.pace(1), 2.0);
    }

    #[test]
    fn split_halves_communicate() {
        let (master, worker) = link(1.0, Pacing::OFF);
        master.send(blk(FrameKind::BlockB, 0, 5), 1).unwrap();
        let f = worker.recv().unwrap();
        assert_eq!(f.tag.j, 5);
        worker.send(blk(FrameKind::CResult, 0, 5));
        let f = master.recv_wait_run(0, None).unwrap();
        assert_eq!(f.tag.kind, FrameKind::CResult);
        drop(worker);
        assert_eq!(master.send(blk(FrameKind::BlockB, 0, 6), 1), None, "the worker's half is gone");
    }

    #[test]
    fn pacing_sleeps_roughly_right() {
        let (master, _worker) = link(0.01, Pacing { time_scale: 1.0 });
        let start = Instant::now();
        master.send(blk(FrameKind::BlockA, 0, 0), 2).unwrap(); // 0.02 s
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
        let (master, worker) = link(1.0, Pacing::OFF);
        master.register_run(3);

        // Outbound: the link forwards the generation the driver stamped.
        let out = Frame::new_in_run(Tag::new(FrameKind::BlockA, 1, 2), 3, Bytes::new());
        master.send(out, 1).unwrap();
        assert_eq!(worker.recv().unwrap().run, 3);

        // A stale data frame (previous generation) queued ahead of a good
        // one is dropped — counted, not delivered.
        worker.send(result_in(2, 9, 9));
        worker.send(result_in(3, 1, 2));
        let t = Some(Duration::from_secs(5));
        let got = master.recv_wait_run(3, t).unwrap();
        assert_eq!(got.tag, Tag::new(FrameKind::CResult, 1, 2));
        assert_eq!(master.stale_rejected(), 1);

        // Control traffic passes regardless of generation.
        let mut ctl = Frame::new(Tag { kind: FrameKind::Control, i: 7, j: 0 }, Bytes::new());
        ctl.run = 55;
        worker.send(ctl);
        assert_eq!(master.recv_wait_run(3, t).unwrap().tag.i, 7);

        // The receive still honors its timeout on an all-stale queue.
        worker.send(result_in(1, 4, 4));
        assert!(master.recv_wait_run(3, Some(Duration::from_millis(20))).is_none());
        assert_eq!(master.stale_rejected(), 2);
    }

    #[test]
    fn registered_job_generations_are_admitted_and_prestamps_survive() {
        let (master, worker) = link(1.0, Pacing::OFF);
        master.register_run(7);
        master.register_run(9);

        // A frame pre-stamped with one live generation keeps its stamp.
        let mut out = blk(FrameKind::BlockA, 1, 2);
        out.run = 7;
        master.send(out, 1).unwrap();
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
        assert_eq!(master.stale_rejected(), 2);

        // After deregistering, generation 7 is stale again.
        master.deregister_run(7);
        worker.send(result_in(7, 3, 3));
        assert!(master.recv_wait_run(9, brief).is_none());
        assert_eq!(master.stale_rejected(), 3);
    }

    #[test]
    fn recv_wait_run_routes_frames_to_their_generation() {
        let (master, worker) = link(1.0, Pacing::OFF);
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
        assert_eq!(master.stale_rejected(), 0);

        // Timeout with nothing pending.
        assert!(master.recv_wait_run(11, Some(Duration::from_millis(10))).is_none());

        // Retiring a generation drops and counts its stashed leftovers.
        let mut leftover = blk(FrameKind::CResult, 9, 0);
        leftover.run = 12;
        worker.send(leftover);
        assert!(master.recv_wait_run(11, Some(Duration::from_millis(10))).is_none());
        master.deregister_run(12);
        assert_eq!(master.stale_rejected(), 1);
    }

    #[test]
    fn concurrent_collectors_each_get_their_own_frames() {
        let (master, worker) = link(1.0, Pacing::OFF);
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
    fn a_parked_receiver_drains_what_arrived_before_the_worker_left() {
        let (master, worker) = link(1.0, Pacing::OFF);
        master.register_run(5);
        let master = Arc::new(master);
        let m = Arc::clone(&master);
        let (got_tx, got_rx) = std::sync::mpsc::channel();
        // No deadline: only an arrival or the worker's half going away
        // ends the wait.
        let collector = std::thread::spawn(move || {
            while let Some(f) = m.recv_wait_run(5, None) {
                got_tx.send(f.tag.i).unwrap();
            }
        });
        // Send only once the collector is (very likely) parked: the
        // arrival must wake it.
        std::thread::sleep(Duration::from_millis(20));
        worker.send(result_in(5, 0, 0));
        assert_eq!(got_rx.recv_timeout(Duration::from_secs(10)), Ok(0), "woken by its frame");
        worker.send(result_in(5, 1, 0));
        worker.send(result_in(5, 2, 0));
        drop(worker);
        collector.join().unwrap();
        assert_eq!(got_rx.iter().collect::<Vec<_>>(), [1, 2]);
        assert!(master.recv_wait_run(5, None).is_none(), "a closed, drained link");
    }

    #[test]
    fn a_control_frame_of_an_open_generation_reaches_its_collector() {
        let (master, worker) = link(1.0, Pacing::OFF);
        master.register_run(31);
        master.register_run(32);
        let ctl = Frame::new_in_run(Tag { kind: FrameKind::Control, i: 4, j: 0 }, 32, Bytes::new());
        worker.send(ctl);
        let brief = Some(Duration::from_millis(10));
        assert!(master.recv_wait_run(31, brief).is_none(), "another generation's control");
        assert_eq!(master.recv_wait_run(32, brief).unwrap().tag.i, 4);
        assert_eq!(master.stale_rejected(), 0);
    }

    #[test]
    fn fifo_frame_order_preserved() {
        let (master, worker) = link(1.0, Pacing::OFF);
        for k in 0..10 {
            master.send(blk(FrameKind::BlockA, k, 0), 1).unwrap();
        }
        for k in 0..10 {
            assert_eq!(worker.recv().unwrap().tag.i, k as u32);
        }
    }
}
