//! Liveness end-to-end: the master owns it. Its out pump probes a link
//! idle for a probe period (a tenth of the deadline), a worker answers
//! every probe it reads and runs no thread of its own for liveness, and
//! before it hands its program a data frame it writes a heartbeat if it
//! has written nothing for a probe period. These tests hold that scheme
//! to both halves of its promise over loopback TCP, under a 600 ms
//! deadline (probes every 60 ms):
//!
//! - a worker that is gone while its socket stays open is condemned
//!   within the deadline of a run's start, and the run is bit-identical
//!   on the rest;
//! - a healthy worker is never condemned: not while the fleet idles for
//!   ten deadlines, not while one step keeps it from its socket for
//!   several probe periods, and not while the master streams it frames
//!   for longer than the deadline before it has anything to reply.
//!
//! Results are compared with an unpaced channel session's, bit for bit.

use mwp_blockmat::fill::random_matrix;
use mwp_blockmat::BlockMatrix;
use mwp_core::session::RuntimeSession;
use mwp_msg::config::Config;
use mwp_msg::transport::{self, FrameRead, FrameStream, FrameWrite, TransportListener};
use mwp_msg::{Frame, FrameKind, TransportMode};
use mwp_platform::Platform;
use std::io;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

mod common;
use common::{fleet, join_all, spawn_honest};

const DEADLINE: Duration = Duration::from_millis(600);

/// [`common::fleet`] under the 600 ms deadline, masters and workers alike.
fn tight() -> Config {
    Config { liveness: Some(DEADLINE), ..fleet() }
}

/// A product of `r × t` by `t × s` blocks of side 4, and its C.
fn product(r: usize, t: usize, s: usize) -> (BlockMatrix, BlockMatrix, BlockMatrix) {
    (random_matrix(r, t, 4, 71), random_matrix(t, s, 4, 72), random_matrix(r, s, 4, 73))
}

/// The product over channels on a fleet of `platform`'s shape, unpaced:
/// the bits every socket run must reproduce.
fn reference(platform: &Platform, (a, b, c): &(BlockMatrix, BlockMatrix, BlockMatrix), all: bool) -> BlockMatrix {
    let local = RuntimeSession::with_transport(platform, 0.0, TransportMode::Channel);
    let out = if all { local.run_all_workers(a, b, c.clone()) } else { local.run_holm(a, b, c.clone()) };
    local.shutdown();
    out.expect("the channel reference runs").c
}

#[test]
fn a_hung_worker_is_condemned_within_the_deadline_and_the_rest_finish_the_run() {
    let platform = Platform::homogeneous(3, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let healthy = spawn_honest(&endpoint, &tight(), 2);
    // The third worker enrolls and then never touches its endpoint again:
    // no result, no answer to a probe, and its socket stays open.
    let socket = transport::connect(&endpoint).expect("dial the master");
    let (release, hold) = mpsc::channel::<()>();
    let hung = thread::spawn(move || {
        let (ep, _) = transport::enroll_with(socket, None, b"hung", 0, &tight()).expect("enroll");
        let _ = hold.recv();
        drop(ep);
    });
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &tight()).unwrap();
    let problem = product(5, 7, 9);
    let want = reference(&platform, &problem, true);

    let started = Instant::now();
    let (a, b, c) = &problem;
    let got = remote.run_all_workers(a, b, c.clone()).expect("the survivors finish the run").c;
    let took = started.elapsed();
    assert_eq!(got.max_abs_diff(&want), 0.0, "the recovered run is bit-identical");
    assert_eq!(remote.dead_workers(), 1, "the hung worker is condemned, and only it");
    // Condemned within the deadline; the survivors' share of the rerun
    // takes milliseconds, and the rest is slack for a loaded runner.
    assert!(took < 2 * DEADLINE, "the run took {took:?}: the deadline did not bound the hung worker");

    drop(release);
    hung.join().unwrap();
    remote.shutdown();
    join_all(healthy);
}

#[test]
fn an_idle_fleet_stays_alive_across_ten_deadlines() {
    let platform = Platform::homogeneous(2, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let workers = spawn_honest(&listener.endpoint(), &tight(), 2);
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &tight()).unwrap();
    // Nothing but probes and their answers cross either link meanwhile.
    thread::sleep(10 * DEADLINE);
    let problem = product(4, 5, 6);
    let (a, b, c) = &problem;
    let got = remote.run_all_workers(a, b, c.clone()).expect("the idle fleet serves").c;
    assert_eq!(got.max_abs_diff(&reference(&platform, &problem, true)), 0.0);
    assert_eq!(remote.dead_workers(), 0, "an idle worker was condemned");
    remote.shutdown();
    join_all(workers);
}

/// The read half of a worker that is away from its socket for `pause`
/// right after the program takes its first `A` column — as long as a
/// step whose kernel call ran that long: the worker reads nothing,
/// answers no probe and writes nothing meanwhile.
struct SlowStep {
    inner: Box<dyn FrameRead>,
    pause: Option<Duration>,
    armed: bool,
}

impl FrameRead for SlowStep {
    fn recv_frame(&mut self) -> io::Result<Option<Frame>> {
        if self.armed {
            self.armed = false;
            thread::sleep(self.pause.take().expect("one pause"));
        }
        let frame = self.inner.recv_frame()?;
        if frame.as_ref().is_some_and(|f| f.tag.kind == FrameKind::BlockA) && self.pause.is_some() {
            self.armed = true;
        }
        Ok(frame)
    }
}

/// A dialed stream whose read half becomes a [`SlowStep`] at the split.
struct SlowStepStream(Box<dyn FrameStream>, Duration);

impl FrameRead for SlowStepStream {
    fn recv_frame(&mut self) -> io::Result<Option<Frame>> {
        self.0.recv_frame()
    }
}

impl FrameWrite for SlowStepStream {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.0.send_frame(frame)
    }
}

impl FrameStream for SlowStepStream {
    fn recv_frame_capped(&mut self, max_wire_len: usize) -> io::Result<Option<Frame>> {
        self.0.recv_frame_capped(max_wire_len)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.0.set_read_timeout(timeout)
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn FrameRead>, Box<dyn FrameWrite>)> {
        let (read, write) = self.0.split()?;
        Ok((Box::new(SlowStep { inner: read, pause: Some(self.1), armed: false }), write))
    }

    fn peer(&self) -> String {
        self.0.peer()
    }
}

#[test]
fn a_step_longer_than_the_probe_period_condemns_no_one() {
    // Five probe periods, half the deadline.
    let pause = DEADLINE / 2;
    let platform = Platform::homogeneous(2, 4.0, 1.0, 20).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let endpoint = listener.endpoint();
    let honest = spawn_honest(&endpoint, &tight(), 1);
    let socket = transport::connect(&endpoint).expect("dial the master");
    let slow = thread::spawn(move || {
        let stream = Box::new(SlowStepStream(socket, pause));
        let (ep, welcome) = transport::enroll_with(stream, None, b"slow", 0, &tight()).expect("enroll");
        mwp_core::remote::serve(ep, welcome.m as usize);
    });
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &tight()).unwrap();
    let problem = product(4, 5, 6);
    let (a, b, c) = &problem;
    let started = Instant::now();
    let got = remote.run_all_workers(a, b, c.clone()).expect("the run completes").c;
    assert!(started.elapsed() >= pause, "the slow step never ran");
    assert_eq!(got.max_abs_diff(&reference(&platform, &problem, true)), 0.0);
    assert_eq!(remote.dead_workers(), 0, "a worker busy for less than the deadline was condemned");
    remote.shutdown();
    join_all(honest);
    slow.join().unwrap();
}

#[test]
fn a_worker_that_only_receives_for_longer_than_the_deadline_is_not_condemned() {
    // One worker of m = 12 takes C as one 2 × 2 chunk, and 24 steps of a
    // B row and an A column follow it, all before its first reply. Paced
    // at 12.5 ms a block, each of those 50 two-block frames holds the
    // port 25 ms: the master keeps the link busy for 1.25 s, so its out
    // pump never probes it.
    let platform = Platform::homogeneous(1, 1.0, 1.0, 12).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let workers = spawn_honest(&listener.endpoint(), &tight(), 1);
    let remote = RuntimeSession::accept_remote(&platform, 0.0125, &listener, &tight()).unwrap();
    let problem = product(2, 24, 2);
    let (a, b, c) = &problem;
    let started = Instant::now();
    let got = remote.run_holm(a, b, c.clone()).expect("the run completes").c;
    assert!(started.elapsed() > DEADLINE, "the master streamed for less than the deadline");
    assert_eq!(got.max_abs_diff(&reference(&platform, &problem, false)), 0.0);
    assert_eq!(remote.dead_workers(), 0, "a worker that only received was condemned");
    remote.shutdown();
    join_all(workers);
}
