//! Master and worker endpoints: the user-facing API of the message layer.

use crate::frame::{Frame, FrameKind};
use crate::lifecycle::RUN_BEGIN;
use crate::link::{MasterSide, WorkerSide};
use crate::pool::BufferPool;
use crate::port::OnePort;
use crate::stats::LinkSnapshot;
use bytes::Bytes;
use mwp_platform::WorkerId;
use mwp_trace::{record, Activity, ActivityKind, Resource, SimTime};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::RecvError;
use std::time::Duration;

/// Fixed trace label for a frame kind (no allocation on the hot path).
fn kind_label(k: FrameKind) -> &'static str {
    match k {
        FrameKind::BlockA => "A",
        FrameKind::BlockB => "B",
        FrameKind::BlockC => "C",
        FrameKind::CResult => "C result",
        FrameKind::LuPanel => "LU panel",
        FrameKind::Control => "control",
        FrameKind::Shutdown => "shutdown",
        FrameKind::Heartbeat => "heartbeat",
    }
}

/// Trace timestamp taken only when some sink is live — the whole
/// instrumentation layer hangs off this `Option`, so `MWP_TRACE=off`
/// costs one relaxed atomic check and nothing else.
#[inline]
fn trace_start() -> Option<SimTime> {
    record::enabled().then(record::now)
}

/// Record one master-port operation: a `Wait` span for the time spent
/// blocked before the transfer (port arbitration, and for timed receives
/// the park until the frame arrived), then the `Send`/`Recv` transfer
/// span `[t1, now]` carrying payload bytes (block frames only) and the
/// run generation tag.
fn trace_port_op(
    kind: ActivityKind,
    peer: WorkerId,
    t0: SimTime,
    t1: SimTime,
    frame_kind: FrameKind,
    run: u32,
    payload_len: usize,
) {
    let end = record::now();
    let label = kind_label(frame_kind);
    if t1 > t0 {
        record::record(
            Activity::new(
                Resource::MasterPort,
                ActivityKind::Wait,
                peer,
                t0,
                t1,
                label.into(),
            )
            .with_run(run),
        );
    }
    let bytes = if frame_kind.is_block() {
        payload_len as u64
    } else {
        0
    };
    record::record(
        Activity::new(Resource::MasterPort, kind, peer, t1, end, label.into())
            .with_bytes(bytes)
            .with_run(run),
    );
}

/// The master's communication handle.
///
/// Every send/receive acquires the shared [`OnePort`] for its whole
/// duration, so concurrent master-side threads (if any) serialize exactly
/// as the one-port model demands. The typical runtime drives the master
/// from a single thread, making the arbiter a cheap formality — but the
/// invariant is enforced regardless.
pub struct MasterEndpoint {
    port: OnePort,
    links: Vec<MasterSide>,
    /// The liveness deadline this endpoint's session was built under
    /// ([`crate::config::Config::liveness`]), `None` when liveness is off.
    deadline: Option<Duration>,
}

impl MasterEndpoint {
    pub(crate) fn new(
        port: OnePort,
        links: Vec<MasterSide>,
        liveness: Option<(Duration, Duration)>,
    ) -> Self {
        MasterEndpoint { port, links, deadline: liveness.map(|(_, deadline)| deadline) }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.links.len()
    }

    /// Send `frame` (counted as `blocks` blocks) to `to`, holding the port
    /// for the paced duration. Returns the model-time cost `blocks · c_to`.
    pub fn send(&self, to: WorkerId, frame: Frame, blocks: u64) -> f64 {
        let pre = trace_start().map(|t0| (t0, frame.tag.kind, frame.run, frame.payload.len()));
        let _guard = self.port.acquire();
        let t1 = pre.as_ref().map(|_| record::now());
        let cost = self.links[to.index()].send(frame, blocks);
        if let (Some((t0, fk, run, len)), Some(t1)) = (pre, t1) {
            trace_port_op(ActivityKind::Send, to, t0, t1, fk, run, len);
        }
        cost
    }

    /// Run-less receive of a frame from `from` (counted as `blocks`
    /// blocks), for a bare network that opens no run; a session's runs
    /// receive through [`MasterEndpoint::recv_deadline`]. Blocks the
    /// caller until the worker produced a frame, holding the port during
    /// the wait: in the paper's algorithms the master only posts a receive
    /// when the worker is (about to be) done, and Algorithm 3 explicitly
    /// bills waiting time to the port timeline via
    /// `max(completion, ready)`.
    pub fn recv(&self, from: WorkerId, blocks: u64) -> Result<(Frame, f64), RecvError> {
        let t0 = trace_start();
        let _guard = self.port.acquire();
        let t1 = t0.map(|_| record::now());
        let result = self.links[from.index()].recv(blocks);
        if let (Some(t0), Some(t1), Ok((frame, _))) = (t0, t1, &result) {
            trace_port_op(
                ActivityKind::Recv,
                from,
                t0,
                t1,
                frame.tag.kind,
                frame.run,
                frame.payload.len(),
            );
        }
        result
    }

    /// Receive the next frame of run generation `run` from `from`, with
    /// an optional wall-clock timeout — how failure-aware masters detect
    /// dead workers instead of blocking forever. Frames of *other* live
    /// generations pulled en route are routed to their own collectors
    /// instead of being dropped: this per-generation demultiplexing is
    /// what lets several runs share one session's links.
    ///
    /// The wait is a real blocking park on the link channel's own
    /// `recv_timeout` (condvar parking), so a timeout costs **zero** idle
    /// CPU — no polling loop, no sleep quantum. The port is only taken
    /// once a frame is actually available, to pay the transfer: waiting
    /// for a slow worker does not occupy the port.
    ///
    /// `None` means timeout or worker death (closed link) — in either
    /// case the caller should treat the worker as gone for this exchange.
    pub fn recv_timeout(
        &self,
        from: WorkerId,
        run: u32,
        blocks: u64,
        timeout: Option<Duration>,
    ) -> Option<(Frame, f64)> {
        let t0 = trace_start();
        let frame = self.links[from.index()].recv_wait_run(run, timeout)?;
        let _guard = self.port.acquire();
        let t1 = t0.map(|_| record::now());
        let (frame, cost) = self.links[from.index()].finish_recv(frame, blocks);
        if let (Some(t0), Some(t1)) = (t0, t1) {
            trace_port_op(
                ActivityKind::Recv,
                from,
                t0,
                t1,
                frame.tag.kind,
                frame.run,
                frame.payload.len(),
            );
        }
        Some((frame, cost))
    }

    /// Best-effort control send for teardown paths: identical port and
    /// metering behavior to [`MasterEndpoint::send`], but a link whose
    /// worker already exited is ignored instead of panicking (session
    /// shutdown must not fail because a worker died first).
    pub fn send_lossy(&self, to: WorkerId, frame: Frame) {
        let pre = trace_start().map(|t0| (t0, frame.tag.kind, frame.run, frame.payload.len()));
        let _guard = self.port.acquire();
        let t1 = pre.as_ref().map(|_| record::now());
        self.links[to.index()].send_lossy(frame, 0);
        if let (Some((t0, fk, run, len)), Some(t1)) = (pre, t1) {
            trace_port_op(ActivityKind::Send, to, t0, t1, fk, run, len);
        }
    }

    /// Failure-aware send: `Some(cost)` when the frame reached `to`'s
    /// link, `None` when that worker is dead (its link channel closed, or
    /// it was already declared dead). Unlike [`MasterEndpoint::send`],
    /// which panics on a closed link, this is the primitive the
    /// fault-tolerant schedulers build on: a `None` marks the link dead
    /// (see [`MasterEndpoint::mark_dead`]) and the caller re-plans.
    pub fn try_send(&self, to: WorkerId, frame: Frame, blocks: u64) -> Option<f64> {
        let pre = trace_start().map(|t0| (t0, frame.tag.kind, frame.run, frame.payload.len()));
        let _guard = self.port.acquire();
        let t1 = pre.as_ref().map(|_| record::now());
        let cost = self.links[to.index()].try_send(frame, blocks);
        if let (Some((t0, fk, run, len)), Some(t1), Some(_)) = (pre, t1, cost) {
            trace_port_op(ActivityKind::Send, to, t0, t1, fk, run, len);
        }
        cost
    }

    /// Receive a frame of run generation `run` from `from` under the
    /// liveness deadline this endpoint was built with
    /// ([`crate::config::Config::liveness`]). `None` means the worker is
    /// dead or wedged past the detection bound — the caller should
    /// [`MasterEndpoint::mark_dead`] it and re-dispatch its outstanding
    /// work. With liveness disabled the wait is unbounded, and only a
    /// closed link (worker exit, pump death) returns `None`.
    pub fn recv_deadline(&self, from: WorkerId, run: u32, blocks: u64) -> Option<(Frame, f64)> {
        if self.links[from.index()].is_dead() {
            return None;
        }
        self.recv_timeout(from, run, blocks, self.deadline)
    }

    /// Whether `w`'s link has been declared dead — or `w` is no member of
    /// the fleet at all (a schedule for an emptied fleet still names
    /// worker 0).
    pub fn is_dead(&self, w: WorkerId) -> bool {
        self.links.get(w.index()).is_none_or(|link| link.is_dead())
    }

    /// Permanently declare `w` dead: no further frame is sent to or
    /// accepted from its link this session (a wedged worker waking up
    /// late must not inject stale frames into a later exchange). A no-op
    /// for a `w` outside the fleet, which [`MasterEndpoint::is_dead`]
    /// already reports dead.
    pub fn mark_dead(&self, w: WorkerId) {
        if let Some(link) = self.links.get(w.index()) {
            link.mark_dead();
        }
    }

    /// Append a link for a newly enrolled worker (elastic membership);
    /// returns its id.
    pub(crate) fn add_link(&mut self, side: MasterSide) -> WorkerId {
        self.links.push(side);
        WorkerId(self.links.len() - 1)
    }

    /// Remove a link by index (elastic membership: disenrollment or
    /// pruning a dead worker). Later workers shift down one slot —
    /// master-side routing is structural, so surviving links keep
    /// working under their new ids.
    pub(crate) fn remove_link(&mut self, idx: usize) -> MasterSide {
        self.links.remove(idx)
    }

    /// Register a live run generation on every link (see
    /// [`crate::session::Session::begin_run`]): its data frames are
    /// admitted concurrently with any other live generation.
    pub(crate) fn register_run(&self, run: u32) {
        for link in &self.links {
            link.register_run(run);
        }
    }

    /// Retire a run generation on every link: stop admitting its data
    /// frames and drop (counting as stale) anything still parked in its
    /// demux queues.
    pub(crate) fn deregister_run(&self, run: u32) {
        for link in &self.links {
            link.deregister_run(run);
        }
    }

    /// Total inbound data frames rejected by the run-generation check,
    /// summed over all links.
    pub fn stale_rejections(&self) -> u64 {
        (0..self.links.len())
            .map(|i| self.link_stats(WorkerId(i)).stale_rejected)
            .sum()
    }

    /// Per-link statistics snapshot.
    pub fn link_stats(&self, w: WorkerId) -> LinkSnapshot {
        self.links[w.index()].stats().snapshot()
    }

    /// Total blocks sent + received over all links.
    pub fn total_blocks(&self) -> u64 {
        (0..self.links.len())
            .map(|i| self.link_stats(WorkerId(i)).total_blocks())
            .sum()
    }

    /// Per-block link cost `c_i`.
    pub fn link_cost(&self, w: WorkerId) -> f64 {
        self.links[w.index()].c
    }
}

/// How a worker endpoint reaches its master: an in-process channel pair,
/// or the read/write halves of a framed socket (the remote-worker case —
/// see [`crate::transport`]). The reader sits behind a mutex only to keep
/// `recv` on `&self` (a worker drives its endpoint from one thread); the
/// writer is additionally shared with the endpoint's heartbeat thread,
/// which interleaves liveness probes between result frames while the
/// worker computes — the only time the writer lock is ever contended.
enum Route {
    Channel(WorkerSide),
    Remote {
        reader: std::sync::Mutex<Box<dyn crate::transport::FrameRead>>,
        writer: std::sync::Arc<std::sync::Mutex<Box<dyn crate::transport::FrameWrite>>>,
    },
}

/// One worker's communication handle.
///
/// The worker programs (Algorithm 2's block server, the LU op server) are
/// written against this type only — whether the master is a thread on the
/// other end of a channel or a process on the other end of a socket is
/// invisible to them, which is what keeps the two transports
/// bit-identical: there is exactly one compute path.
pub struct WorkerEndpoint {
    id: WorkerId,
    route: Route,
    pool: BufferPool,
    /// The run generation this worker is currently serving, learned from
    /// the `RUN_BEGIN` frame's `run` field as it passes through `recv`.
    /// Every outbound frame is stamped with it, so the master's links can
    /// structurally reject anything this worker sends that belongs to an
    /// earlier run.
    current_run: AtomicU32,
    /// Dropping this (with the endpoint) stops the heartbeat thread on
    /// its next wakeup — the thread's timed receive observes the
    /// disconnect immediately, so no join is needed.
    _hb_stop: Option<std::sync::mpsc::Sender<()>>,
}

impl WorkerEndpoint {
    pub(crate) fn new(id: WorkerId, link: WorkerSide) -> Self {
        WorkerEndpoint {
            id,
            route: Route::Channel(link),
            pool: BufferPool::new(),
            current_run: AtomicU32::new(0),
            _hb_stop: None,
        }
    }

    /// A remote worker's endpoint: frames travel over the framed stream
    /// halves instead of a channel. Built by [`crate::transport::enroll_with`]
    /// after the handshake assigns the id.
    ///
    /// With a `heartbeat` interval (the enrolling
    /// [`crate::config::Config::liveness`]'s) a heartbeat thread sends
    /// a probe that often over the shared writer, so the master keeps
    /// seeing traffic even while this worker's serving thread is deep in
    /// a long kernel call — a slow worker must not be mistaken for a dead
    /// one.
    pub(crate) fn remote(
        id: WorkerId,
        reader: Box<dyn crate::transport::FrameRead>,
        writer: Box<dyn crate::transport::FrameWrite>,
        heartbeat: Option<Duration>,
    ) -> Self {
        let writer = std::sync::Arc::new(std::sync::Mutex::new(writer));
        let hb_stop = heartbeat.map(|interval| {
            let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
            let hb_writer = std::sync::Arc::clone(&writer);
            std::thread::Builder::new()
                .name(format!("mwp-heartbeat-{}", id.index()))
                .spawn(move || {
                    // Timeout = tick; any other outcome (a stop signal or
                    // the endpoint dropping the sender) ends the thread.
                    while matches!(
                        stop_rx.recv_timeout(interval),
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout)
                    ) {
                        let mut writer = hb_writer.lock().unwrap_or_else(|e| e.into_inner());
                        if writer.send_frame(&Frame::heartbeat()).is_err() {
                            break; // master gone: the serving thread will see it too
                        }
                    }
                })
                .expect("spawn heartbeat thread");
            stop_tx
        });
        WorkerEndpoint {
            id,
            route: Route::Remote { reader: std::sync::Mutex::new(reader), writer },
            pool: BufferPool::new(),
            current_run: AtomicU32::new(0),
            _hb_stop: hb_stop,
        }
    }

    /// This worker's id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Blocking receive of the next frame from the master. On the socket
    /// route, a clean peer close or a transport error surfaces as the
    /// same [`RecvError`] a dropped channel produces — worker programs
    /// treat both as "master gone". The master's idle-link heartbeats are
    /// swallowed here: no worker program ever sees a liveness probe, and
    /// each one resets the socket's read deadline simply by arriving.
    pub fn recv(&self) -> Result<Frame, RecvError> {
        let frame = match &self.route {
            Route::Channel(link) => link.recv()?,
            Route::Remote { reader, .. } => {
                let mut reader = reader.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    match reader.recv_frame() {
                        Ok(Some(frame)) if frame.tag.kind == FrameKind::Heartbeat => continue,
                        Ok(Some(frame)) => break frame,
                        Ok(None) | Err(_) => return Err(RecvError),
                    }
                }
            }
        };
        // A RUN_BEGIN carries the generation it opens: adopt it, so every
        // result frame this worker sends back is stamped with the run it
        // actually belongs to.
        if frame.tag.kind == FrameKind::Control && frame.tag.i == RUN_BEGIN {
            self.current_run.store(frame.run, Ordering::Release);
        }
        Ok(frame)
    }

    /// The run generation most recently adopted from a `RUN_BEGIN` frame
    /// (0 before the first run). Multi-run worker programs read this once
    /// at entry to learn which generation woke them, then track
    /// generations per frame.
    pub fn current_run(&self) -> u32 {
        self.current_run.load(Ordering::Acquire)
    }

    /// Return a result frame to the master. Never blocks for bandwidth —
    /// the master pays the transfer cost when it pulls the frame. Like
    /// the channel route's send-to-a-dropped-master, a socket write
    /// failure is swallowed: the next `recv` will report the dead master.
    pub fn send(&self, frame: Frame) {
        self.send_in(self.current_run.load(Ordering::Acquire), frame);
    }

    /// Return a result frame stamped with an explicit run generation —
    /// the primitive multi-run worker programs use when several job
    /// generations are interleaved on this endpoint and the adopted
    /// `current_run` (the *latest* `RUN_BEGIN` seen) may not be the run
    /// this result belongs to.
    pub fn send_in(&self, run: u32, mut frame: Frame) {
        frame.run = run;
        match &self.route {
            Route::Channel(link) => link.send(frame),
            Route::Remote { writer, .. } => {
                let _ = writer.lock().unwrap_or_else(|e| e.into_inner()).send_frame(&frame);
            }
        }
    }

    /// Build a result payload in this endpoint's recycled buffer pool.
    ///
    /// The buffer returns to the pool once the master drops the last view
    /// of the payload, so a worker returning results in a loop allocates
    /// only until the pool warms up, then never again.
    pub fn pooled_payload(&self, capacity_hint: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        self.pool.bytes_with(capacity_hint, fill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameKind, Tag};
    use crate::link::{Link, Pacing};
    use bytes::Bytes;
    use std::thread;

    fn star(p: usize) -> (MasterEndpoint, Vec<WorkerEndpoint>) {
        let port = OnePort::new();
        let mut masters = Vec::new();
        let mut workers = Vec::new();
        for i in 0..p {
            let (m, w) = Link::new(1.0, Pacing::OFF).split();
            masters.push(m);
            workers.push(WorkerEndpoint::new(WorkerId(i), w));
        }
        (MasterEndpoint::new(port, masters, crate::config::Config::default().liveness), workers)
    }

    #[test]
    fn echo_across_threads() {
        let (master, workers) = star(3);
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| {
                thread::spawn(move || {
                    let f = w.recv().unwrap();
                    assert_eq!(f.tag.kind, FrameKind::BlockA);
                    w.send(Frame::new(
                        Tag::new(FrameKind::CResult, f.tag.i as usize, 0),
                        f.payload,
                    ));
                })
            })
            .collect();
        for i in 0..3 {
            master.send(
                WorkerId(i),
                Frame::new(Tag::new(FrameKind::BlockA, i, 0), Bytes::from_static(b"x")),
                1,
            );
        }
        for i in 0..3 {
            let (f, cost) = master.recv(WorkerId(i), 1).unwrap();
            assert_eq!(f.tag.i as usize, i);
            assert_eq!(cost, 1.0);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(master.total_blocks(), 6);
    }

    #[test]
    fn recv_timeout_detects_dead_worker() {
        let (master, workers) = star(2);
        // Worker 0 replies; worker 1 "dies" (thread exits immediately).
        let w0 = workers.into_iter().next().unwrap();
        let handle = thread::spawn(move || {
            let f = w0.recv().unwrap();
            w0.send(f);
        });
        master.send(
            WorkerId(0),
            Frame::new(Tag::new(FrameKind::Control, 1, 0), Bytes::new()),
            0,
        );
        // Control echoes belong to no generation: any run's receive takes them.
        let got = master.recv_timeout(WorkerId(0), 1, 0, Some(std::time::Duration::from_secs(5)));
        assert!(got.is_some(), "healthy worker must answer in time");
        // Nothing was ever sent to worker 1: timeout fires.
        let none =
            master.recv_timeout(WorkerId(1), 1, 0, Some(std::time::Duration::from_millis(50)));
        assert!(none.is_none(), "dead worker must time out");
        handle.join().unwrap();
    }

    #[test]
    fn recv_timeout_wakes_on_late_frame() {
        // The timed receive must park and be woken by a frame that arrives
        // mid-wait (the old implementation polled; this one blocks on the
        // channel), well before the generous timeout.
        let (master, workers) = star(1);
        let w = workers.into_iter().next().unwrap();
        let handle = thread::spawn(move || {
            let f = w.recv().unwrap();
            // Reply only after the master is (very likely) parked.
            thread::sleep(std::time::Duration::from_millis(20));
            w.send(f);
        });
        master.send(
            WorkerId(0),
            Frame::new(Tag::new(FrameKind::Control, 3, 0), Bytes::new()),
            0,
        );
        let start = std::time::Instant::now();
        let got = master.recv_timeout(WorkerId(0), 1, 0, Some(std::time::Duration::from_secs(30)));
        assert!(got.is_some(), "late frame must wake the parked receiver");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "woke only near the timeout: the wait is not event-driven"
        );
        handle.join().unwrap();
    }

    #[test]
    fn worker_adopts_generation_from_run_begin_and_stamps_replies() {
        let (master, workers) = star(1);
        let w = workers.into_iter().next().unwrap();

        master.register_run(4);
        let mut begin = crate::lifecycle::run_begin_frame(6);
        begin.run = 4;
        master.send(WorkerId(0), begin, 0);
        let begin = w.recv().unwrap();
        assert_eq!(begin.run, 4, "RUN_BEGIN must carry the generation it opens");

        // The worker's reply is stamped with the adopted generation and
        // admitted by the master's link.
        w.send(Frame::new(Tag::new(FrameKind::CResult, 0, 0), Bytes::from_static(b"r")));
        let (f, _) = master.recv_deadline(WorkerId(0), 4, 1).unwrap();
        assert_eq!(f.run, 4);

        // After the run ends (generation retired), a late reply still
        // stamped with it is structurally rejected.
        master.deregister_run(4);
        w.send(Frame::new(Tag::new(FrameKind::CResult, 1, 1), Bytes::from_static(b"r")));
        let brief = Some(std::time::Duration::from_millis(30));
        let late = master.recv_timeout(WorkerId(0), 5, 1, brief);
        assert!(late.is_none(), "stale-generation frame must not surface");
        assert_eq!(master.stale_rejections(), 1);
    }

    #[test]
    fn send_lossy_ignores_dead_worker() {
        let (master, workers) = star(2);
        drop(workers); // both worker endpoints gone: channels closed
        // A plain send would panic; the lossy teardown send must not.
        master.send_lossy(WorkerId(0), Frame::shutdown());
        master.send_lossy(WorkerId(1), Frame::shutdown());
    }

    #[test]
    fn stats_are_per_link() {
        let (master, workers) = star(2);
        master.send(
            WorkerId(1),
            Frame::new(Tag::new(FrameKind::BlockB, 0, 0), Bytes::new()),
            1,
        );
        assert_eq!(master.link_stats(WorkerId(0)).blocks_to_worker, 0);
        assert_eq!(master.link_stats(WorkerId(1)).blocks_to_worker, 1);
        drop(workers);
    }
}
