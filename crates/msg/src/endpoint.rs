//! Master and worker endpoints: the user-facing API of the message layer.

use crate::frame::{Frame, FrameKind};
use crate::lifecycle::RUN_BEGIN;
use crate::link::{MasterSide, WorkerSide};
use crate::pool::BufferPool;
use crate::port::OnePort;
use bytes::Bytes;
use mwp_platform::WorkerId;
use mwp_trace::{record, Activity, ActivityKind, Resource, SimTime};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::RecvError;
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
    /// Where the payloads the master builds come from — C rows and task
    /// frames in `pool`, operand images in `operands`. Both live as long
    /// as the endpoint, so a held session's runs reuse each other's
    /// buffers.
    pool: BufferPool,
    operands: BufferPool,
}

impl MasterEndpoint {
    /// An endpoint over `links` whose run receives wait at most `deadline`
    /// for each frame (`None`: unbounded).
    pub(crate) fn new(port: OnePort, links: Vec<MasterSide>, deadline: Option<Duration>) -> Self {
        MasterEndpoint { port, links, deadline, pool: BufferPool::new(), operands: BufferPool::new() }
    }

    /// Build a payload in this endpoint's recycled buffer pool — the
    /// master's C rows and task frames (LU's `Panel` tasks and negated
    /// panels).
    ///
    /// The buffer returns to the pool once the last view of the payload
    /// is dropped (by whichever worker consumed it last), so a session
    /// that runs the same shapes again allocates no fresh pages: at most
    /// the pool's cap of buffers, each one a run already had live, stays
    /// parked between runs.
    pub fn pooled_payload(&self, capacity_hint: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        self.pool.bytes_with(capacity_hint, fill)
    }

    /// Build an operand image — a group of steps of a product's A or B —
    /// in this endpoint's second pool, recycled like
    /// [`MasterEndpoint::pooled_payload`]'s. The images are kept apart
    /// from the C rows and task frames: a run's images come in a few
    /// sizes (each group as many steps as the ones before it) and live
    /// for the whole run, while C rows come and go every chunk, and a
    /// shared pool would hand a row's buffer to an image and grow it, or
    /// an image's to a row, so the next run faults in fresh pages for
    /// both.
    pub fn pooled_operand(&self, capacity_hint: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        self.operands.bytes_with(capacity_hint, fill)
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.links.len()
    }

    /// Send `frame` (counted as `blocks` blocks) to `to`, holding the port
    /// for the paced duration. Returns the model-time cost `blocks · c_to`.
    pub fn send(&self, to: WorkerId, frame: Frame, blocks: u64) -> f64 {
        self.send_traced(to, frame, |link, frame| link.send(frame, blocks))
            .expect("worker endpoint dropped")
    }

    /// Hand `frame` to `send` on `to`'s link while holding the port, and
    /// trace the wait for the port and the transfer when it went out.
    fn send_traced(
        &self,
        to: WorkerId,
        frame: Frame,
        send: impl FnOnce(&MasterSide, Frame) -> Option<f64>,
    ) -> Option<f64> {
        let pre = trace_start().map(|t0| (t0, frame.tag.kind, frame.run, frame.payload.len()));
        let _guard = self.port.acquire();
        let t1 = pre.as_ref().map(|_| record::now());
        let cost = send(&self.links[to.index()], frame);
        if let (Some((t0, fk, run, len)), Some(t1), Some(_)) = (pre, t1, cost) {
            trace_port_op(ActivityKind::Send, to, t0, t1, fk, run, len);
        }
        cost
    }

    /// Run-less receive of a frame from `from` (counted as `blocks`
    /// blocks), for a bare network that opens no run; a session's runs
    /// receive through [`MasterEndpoint::recv_deadline`]. Blocks the
    /// caller until the worker produced an unstamped or control frame,
    /// then takes the port to pay the transfer: like a run's receive, it
    /// does not hold the port while it waits. `Err` once the worker's half
    /// is gone.
    pub fn recv(&self, from: WorkerId, blocks: u64) -> Result<(Frame, f64), RecvError> {
        self.recv_timeout(from, 0, blocks, None).ok_or(RecvError)
    }

    /// Receive the next frame of run generation `run` from `from`, with
    /// an optional wall-clock timeout — how failure-aware masters detect
    /// dead workers instead of blocking forever. The link files each
    /// frame under its generation as it arrives, so frames of *other* live
    /// generations wait for their own collectors: this is what lets
    /// several runs share one session's links.
    ///
    /// The wait is a real blocking park on the generation's queue (condvar
    /// parking, woken only by that generation's arrivals and unowned
    /// traffic), so a timeout costs **zero** idle CPU — no polling loop,
    /// no sleep quantum. The port is only taken once a frame is actually
    /// available, to pay the transfer: waiting for a slow worker does not
    /// occupy the port.
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
        let cost = self.links[from.index()].pace(blocks);
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
    /// trace behavior to [`MasterEndpoint::send`], but a link whose
    /// worker already exited is ignored instead of panicking (session
    /// shutdown must not fail because a worker died first). A link only
    /// marked dead still gets the frame: it unparks an in-process worker.
    pub fn send_lossy(&self, to: WorkerId, frame: Frame) {
        self.send_traced(to, frame, |link, frame| link.send(frame, 0));
    }

    /// Failure-aware send: `Some(cost)` when the frame reached `to`'s
    /// link, `None` when that worker is dead (its link channel closed, or
    /// it was already declared dead). Unlike [`MasterEndpoint::send`],
    /// which panics on a closed link, this is the primitive the
    /// fault-tolerant schedulers build on: a `None` marks the link dead
    /// (see [`MasterEndpoint::mark_dead`]) and the caller re-plans.
    /// A link already known dead is paced for nothing — a declared-dead
    /// worker costs no model time.
    pub fn try_send(&self, to: WorkerId, frame: Frame, blocks: u64) -> Option<f64> {
        self.send_traced(to, frame, |link, frame| {
            if link.is_dead() {
                return None;
            }
            let sent = link.send(frame, blocks);
            if sent.is_none() {
                link.mark_dead();
            }
            sent
        })
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
    /// [`crate::session::Session::begin_run_on`]): its data frames are
    /// admitted concurrently with any other live generation.
    pub(crate) fn register_run(&self, run: u32) {
        for link in &self.links {
            link.register_run(run);
        }
    }

    /// Retire a run generation on every link: stop admitting its data
    /// frames and drop (counting as stale) anything still in its queues.
    pub(crate) fn deregister_run(&self, run: u32) {
        for link in &self.links {
            link.deregister_run(run);
        }
    }

    /// Total inbound data frames rejected by the run-generation check,
    /// summed over all links.
    pub fn stale_rejections(&self) -> u64 {
        self.links.iter().map(MasterSide::stale_rejected).sum()
    }
}

/// How a worker endpoint reaches its master: an in-process channel pair,
/// or the read/write halves of a framed socket (the remote-worker case —
/// see [`crate::transport`]). The halves sit behind mutexes only to keep
/// `recv` and `send` on `&self`: a worker drives its endpoint from one
/// thread, and no other thread writes, so neither lock is contended. The
/// writer keeps when it last wrote, and the probe period
/// ([`crate::config::Config::probe_period`]) that silence is held to:
/// `recv` answers every probe of the master's it reads, and writes a
/// heartbeat of its own before it returns a data frame to a worker that
/// has written nothing for a probe period — on a link busy from the
/// master's side, which the master never probes, that is the only
/// traffic a worker that only receives sends.
enum Route {
    Channel(WorkerSide),
    Remote {
        reader: Mutex<Box<dyn crate::transport::FrameRead>>,
        writer: Mutex<RemoteWriter>,
        probe: Option<Duration>,
    },
}

/// The write half of a socket route, and when it last wrote.
struct RemoteWriter {
    frames: Box<dyn crate::transport::FrameWrite>,
    wrote: Instant,
}

impl RemoteWriter {
    /// Write `frame`; a failure is swallowed, since the next receive
    /// reports the dead master.
    fn send(&mut self, frame: &Frame) {
        let _ = self.frames.send_frame(frame);
        self.wrote = Instant::now();
    }
}

/// One worker's communication handle.
///
/// The worker program (Algorithm 2's block server, which serves LU too) is
/// written against this type only — whether the master is a thread on the
/// other end of a channel or a process on the other end of a socket is
/// invisible to it, which is what keeps the two transports
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
}

impl WorkerEndpoint {
    pub(crate) fn new(id: WorkerId, link: WorkerSide) -> Self {
        WorkerEndpoint { id, route: Route::Channel(link), pool: BufferPool::new(), current_run: AtomicU32::new(0) }
    }

    /// A remote worker's endpoint: frames travel over the framed stream
    /// halves instead of a channel. Built by [`crate::transport::enroll_with`]
    /// after the handshake assigns the id, with the enrolling
    /// configuration's [`crate::config::Config::probe_period`] (`None`:
    /// liveness off, and the endpoint writes no heartbeat at all).
    pub(crate) fn remote(
        id: WorkerId,
        reader: Box<dyn crate::transport::FrameRead>,
        writer: Box<dyn crate::transport::FrameWrite>,
        probe: Option<Duration>,
    ) -> Self {
        let writer = Mutex::new(RemoteWriter { frames: writer, wrote: Instant::now() });
        WorkerEndpoint {
            id,
            route: Route::Remote { reader: Mutex::new(reader), writer, probe },
            pool: BufferPool::new(),
            current_run: AtomicU32::new(0),
        }
    }

    /// This worker's id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Blocking receive of the next frame from the master. On the socket
    /// route, a clean peer close or a transport error surfaces as the
    /// same [`RecvError`] a dropped channel produces — worker programs
    /// treat both as "master gone". The master's idle-link probes are
    /// answered and swallowed here, so no worker program ever sees one;
    /// and a data frame is preceded by a heartbeat when this worker has
    /// written nothing for a probe period (see `Route`). Liveness costs a
    /// worker no thread: its traffic is written in order with its results.
    pub fn recv(&self) -> Result<Frame, RecvError> {
        let frame = match &self.route {
            Route::Channel(link) => link.recv()?,
            Route::Remote { reader, writer, probe } => {
                let mut reader = reader.lock().unwrap_or_else(|e| e.into_inner());
                let frame = loop {
                    match reader.recv_frame() {
                        Ok(Some(frame)) if frame.tag.kind == FrameKind::Heartbeat => {
                            writer.lock().unwrap_or_else(|e| e.into_inner()).send(&Frame::heartbeat());
                        }
                        Ok(Some(frame)) => break frame,
                        Ok(None) | Err(_) => return Err(RecvError),
                    }
                };
                if let Some(period) = *probe {
                    let mut writer = writer.lock().unwrap_or_else(|e| e.into_inner());
                    if writer.wrote.elapsed() >= period {
                        writer.send(&Frame::heartbeat());
                    }
                }
                frame
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
            Route::Remote { writer, .. } => writer.lock().unwrap_or_else(|e| e.into_inner()).send(&frame),
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
    use crate::link::{link, Pacing};
    use bytes::Bytes;
    use std::thread;

    fn star(p: usize) -> (MasterEndpoint, Vec<WorkerEndpoint>) {
        let port = OnePort::new();
        let mut masters = Vec::new();
        let mut workers = Vec::new();
        for i in 0..p {
            let (m, w) = link(1.0, Pacing::OFF);
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
        let mut blocks = 0.0;
        for i in 0..3 {
            blocks += master.send(
                WorkerId(i),
                Frame::new(Tag::new(FrameKind::BlockA, i, 0), Bytes::from_static(b"x")),
                1,
            );
        }
        for i in 0..3 {
            let (f, cost) = master.recv(WorkerId(i), 1).unwrap();
            assert_eq!(f.tag.i as usize, i);
            blocks += cost;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(blocks, 6.0, "c = 1: each transfer costs its block count");
    }

    #[test]
    fn a_runless_receive_waits_without_holding_the_port() {
        let (master, workers) = star(2);
        let master = std::sync::Arc::new(master);
        let mut workers = workers.into_iter();
        let (w0, w1) = (workers.next().unwrap(), workers.next().unwrap());
        // One thread parks on worker 0, which stays silent for now.
        let m = std::sync::Arc::clone(&master);
        let parked = thread::spawn(move || m.recv(WorkerId(0), 0).unwrap().0.tag.i);
        thread::sleep(std::time::Duration::from_millis(20));
        // A send to worker 1 from another thread must not wait for it.
        let m = std::sync::Arc::clone(&master);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let sender = thread::spawn(move || {
            let ctl = Frame::new(Tag::new(FrameKind::Control, 1, 0), Bytes::new());
            m.send(WorkerId(1), ctl, 0);
            done_tx.send(()).unwrap();
        });
        let sent = done_rx.recv_timeout(std::time::Duration::from_secs(5));
        // Reply to worker 0 before reading worker 1, so that a receive
        // holding the port fails the test here instead of hanging it.
        w0.send(Frame::new(Tag::new(FrameKind::Control, 7, 0), Bytes::new()));
        assert_eq!(parked.join().unwrap(), 7);
        sender.join().unwrap();
        assert!(sent.is_ok(), "the send waited for the parked receive to end");
        assert_eq!(w1.recv().unwrap().tag.i, 1);
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
}
