//! What the worker suites share: one fleet secret handed to both sides —
//! the masters as a literal [`Config`], the `mwp-worker` processes as
//! their environment — the spawn/reap helpers for those processes, and
//! the in-process workers the chaos tests make misbehave.
//!
//! An in-process worker is the `mwp-worker` program on a thread: it
//! dials the master over loopback TCP, hands its stream to
//! [`transport::enroll_with`] and runs [`mwp_core::remote::serve`]. Its
//! stream ([`FaultyStream`]) frames with the crate's public framing
//! functions and, given a [`Fault`], misbehaves from the worker's `n`-th
//! outbound data frame on: frames are counted after the welcome, and
//! heartbeats are not counted, since their timing is the wall clock's.
//! The master side is the shipped code, unchanged.
//!
//! The handshake impostors ([`dial_impostor`]) are written out by hand. Nothing
//! here (or in the suites) touches this process's environment.
#![allow(dead_code)] // each suite uses its own subset

use mwp_msg::config::Config;
use mwp_msg::BufferPool;
use mwp_msg::transport::{
    self, hello_frame, is_reject, parse_challenge, read_frame_from, reject_error,
    write_frame_to, FrameRead, FrameStream, FrameWrite, Hello, MAX_HANDSHAKE_WIRE_LEN,
    MAX_WIRE_LEN,
};
use mwp_msg::{Frame, FrameKind};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The fleet secret of every suite.
pub const SECRET: &str = "worker-e2e-secret";

/// What every master accepts its fleet under.
pub fn fleet() -> Config {
    Config { fleet_secret: SECRET.into(), ..Config::default() }
}

/// One worker process dialing `endpoint` as a member of [`fleet`].
pub fn worker_command(endpoint: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mwp-worker"));
    cmd.args(["--connect", endpoint, "--wait-ms", "10000"])
        .env("MWP_FLEET_SECRET", SECRET)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// Launch [`worker_command`].
pub fn spawn_worker(endpoint: &str) -> Child {
    worker_command(endpoint).spawn().expect("spawn mwp-worker")
}

/// Every worker process must have exited successfully (status 0 — an
/// orderly shutdown, not a crash or an enrollment failure).
pub fn reap(children: Vec<Child>) {
    for mut child in children {
        let status = child.wait().expect("wait for mwp-worker");
        assert!(status.success(), "mwp-worker exited with {status}");
    }
}

/// A rejected worker process must have exited non-zero — anything else
/// means the master's door opened for it and the test proved nothing.
pub fn reap_failed(mut child: Child, what: &str) {
    let status = child.wait().expect("wait for the failing mwp-worker");
    assert!(!status.success(), "{what}: the worker exited cleanly");
}

/// What a faulty worker's stream does from its `n`-th outbound data
/// frame on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Shut the socket down both ways instead of sending that frame: the
    /// master reads the EOF a killed worker process leaves, and the
    /// worker's own reads end too.
    Kill,
    /// Swallow that frame and every later one, heartbeats included: a
    /// healthy-looking socket that has gone silent, which only the
    /// liveness deadline catches.
    Mute,
    /// Send that one frame with a payload bit flipped under the CRC of
    /// the clean bytes; later frames go out unharmed.
    Corrupt,
    /// Capture data frames; once one from an earlier run generation is
    /// held, replay its wire image (checksum intact) once, ahead of that
    /// frame or the first later one.
    Stale,
}

/// A worker thread serving the master at the other end of its socket.
pub struct InProcessWorker {
    thread: JoinHandle<()>,
    fired: Arc<AtomicBool>,
}

impl InProcessWorker {
    /// Whether its fault has acted (never, for an honest worker).
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Wait for the worker program to end (the master shut the session
    /// down or closed its link) and pass on a panic.
    pub fn join(self) {
        self.thread.join().expect("the in-process worker panicked");
    }
}

/// Dial `endpoint` now — so workers enroll in the order they are spawned
/// — and serve it on a thread as a member of `config`'s fleet, with
/// `fault` acting from the `n`-th outbound data frame when given.
pub fn spawn_in_process(endpoint: &str, config: &Config, fault: Option<(Fault, u64)>) -> InProcessWorker {
    let addr = endpoint.strip_prefix("tcp://").expect("a tcp:// endpoint");
    let socket = TcpStream::connect(addr).expect("dial the master");
    socket.set_nodelay(true).expect("TCP_NODELAY");
    let fired = Arc::new(AtomicBool::new(false));
    let writer = FaultyWriter {
        socket: socket.try_clone().expect("clone the socket"),
        fault: None,
        sent: 0,
        fired: Arc::clone(&fired),
        held: None,
        stale: None,
    };
    let stream = FaultyStream { read: Reader::new(socket), write: writer, fault };
    let config = config.clone();
    let thread = thread::spawn(move || {
        let (ep, welcome) =
            transport::enroll_with(Box::new(stream), b"in-process", 0, &config)
                .expect("enroll the in-process worker");
        mwp_core::remote::serve(ep, welcome.m as usize);
    });
    InProcessWorker { thread, fired }
}

/// `count` honest in-process workers of `config`'s fleet.
pub fn spawn_honest(endpoint: &str, config: &Config, count: usize) -> Vec<InProcessWorker> {
    (0..count).map(|_| spawn_in_process(endpoint, config, None)).collect()
}

/// Join every worker.
pub fn join_all(workers: Vec<InProcessWorker>) {
    workers.into_iter().for_each(InProcessWorker::join);
}

/// The read half: frames through a buffer, as the shipped stream reads.
struct Reader {
    socket: BufReader<TcpStream>,
    pool: BufferPool,
}

impl Reader {
    fn new(socket: TcpStream) -> Self {
        Reader { socket: BufReader::new(socket), pool: BufferPool::new() }
    }

    fn recv(&mut self, max_wire_len: usize) -> io::Result<Option<Frame>> {
        read_frame_from(&mut self.socket, &self.pool, max_wire_len, true)
    }
}

impl FrameRead for Reader {
    fn recv_frame(&mut self) -> io::Result<Option<Frame>> {
        self.recv(MAX_WIRE_LEN)
    }
}

/// The write half, where the fault acts.
struct FaultyWriter {
    socket: TcpStream,
    /// `None` until the stream splits, so handshake frames pass uncounted.
    fault: Option<(Fault, u64)>,
    /// Data frames sent since the split.
    sent: u64,
    fired: Arc<AtomicBool>,
    /// `Stale`: the latest run-stamped data frame's run and wire image.
    held: Option<(u32, Vec<u8>)>,
    /// `Stale`: a wire image from a run before the latest one.
    stale: Option<Vec<u8>>,
}

/// A frame's wire image, exactly as the honest write path sends it.
fn wire_image(frame: &Frame) -> Vec<u8> {
    let mut image = Vec::new();
    write_frame_to(&mut image, frame, true).expect("writing to a Vec cannot fail");
    image
}

impl FaultyWriter {
    fn fire(&self) {
        self.fired.store(true, Ordering::SeqCst);
    }

    fn write_image(&mut self, image: &[u8]) -> io::Result<()> {
        self.socket.write_all(image)?;
        self.socket.flush()
    }
}

impl FrameWrite for FaultyWriter {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        let Some((fault, n)) = self.fault else {
            return write_frame_to(&mut self.socket, frame, true);
        };
        if frame.tag.kind == FrameKind::Heartbeat {
            if fault == Fault::Mute && self.fired.load(Ordering::SeqCst) {
                return Ok(());
            }
            return write_frame_to(&mut self.socket, frame, true);
        }
        self.sent += 1;
        let due = self.sent >= n;
        match fault {
            Fault::Kill if due => {
                self.fire();
                let _ = self.socket.shutdown(Shutdown::Both);
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "killed"))
            }
            Fault::Mute if due => {
                self.fire();
                Ok(())
            }
            Fault::Corrupt if self.sent == n => {
                // Flip the first payload bit (the header's last, with no
                // payload), leaving the trailer to vouch for clean bytes.
                let mut image = wire_image(frame);
                let at = (image.len() - 4 - frame.payload.len()).min(image.len() - 5);
                image[at] ^= 0x01;
                self.fire();
                self.write_image(&image)
            }
            Fault::Stale => {
                if frame.tag.kind.is_block() && frame.run != 0 {
                    if let Some((run, image)) = self.held.take() {
                        if run != frame.run && self.stale.is_none() {
                            self.stale = Some(image);
                        }
                    }
                    self.held = Some((frame.run, wire_image(frame)));
                }
                if due && !self.fired.load(Ordering::SeqCst) {
                    if let Some(image) = self.stale.take() {
                        self.fire();
                        self.write_image(&image)?;
                    }
                }
                write_frame_to(&mut self.socket, frame, true)
            }
            _ => write_frame_to(&mut self.socket, frame, true),
        }
    }
}

/// The in-process worker's [`FrameStream`]: a [`Reader`] and a
/// [`FaultyWriter`] over one TCP socket, and the fault the writer takes
/// on at the split, which [`transport::enroll_with`] makes after the
/// welcome.
struct FaultyStream {
    read: Reader,
    write: FaultyWriter,
    fault: Option<(Fault, u64)>,
}

impl FrameRead for FaultyStream {
    fn recv_frame(&mut self) -> io::Result<Option<Frame>> {
        self.read.recv_frame()
    }
}

impl FrameWrite for FaultyStream {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.write.send_frame(frame)
    }
}

impl FrameStream for FaultyStream {
    fn recv_frame_capped(&mut self, max_wire_len: usize) -> io::Result<Option<Frame>> {
        self.read.recv(max_wire_len)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.read.socket.get_ref().set_read_timeout(timeout)
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn FrameRead>, Box<dyn FrameWrite>)> {
        let FaultyStream { read, mut write, fault } = *self;
        write.fault = fault;
        Ok((Box::new(read), Box::new(write)))
    }

    fn peer(&self) -> String {
        format!("{:?}", self.write.socket.peer_addr())
    }
}

/// How a hand-written dialer answers the master's challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impostor {
    /// With a frame that is not a hello: a peer that does not speak the
    /// enrollment protocol.
    NotAHello,
    /// With a well-formed hello MAC'd under a secret that is not the
    /// fleet's.
    WrongSecret,
    /// It hangs up instead: a worker that dies right after reading the
    /// challenge.
    GoneAfterChallenge,
    /// With a valid hello of the fleet, then it hangs up before reading
    /// the welcome: a worker that dies mid-handshake.
    GoneAfterHello,
}

/// Dial `endpoint` now and, on a thread, answer the challenge as
/// `impostor` does. The thread returns the error kind of the master's
/// rejection, or `None` for a dialer that hung up.
pub fn dial_impostor(endpoint: &str, impostor: Impostor) -> JoinHandle<Option<io::ErrorKind>> {
    let addr = endpoint.strip_prefix("tcp://").expect("a tcp:// endpoint");
    let socket = TcpStream::connect(addr).expect("dial the master");
    thread::spawn(move || {
        socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read deadline");
        let mut writer = socket.try_clone().expect("clone the socket");
        let mut reader = Reader::new(socket);
        let challenge = reader.recv(MAX_HANDSHAKE_WIRE_LEN).expect("read").expect("a challenge");
        let challenge = parse_challenge(&challenge).expect("a challenge");
        let hello = |secret: &[u8]| {
            let hello =
                Hello { epoch: 0, nonce: [7; 16], fingerprint: b"impostor".to_vec() };
            hello_frame(&hello, secret, &challenge)
        };
        let answer = match impostor {
            Impostor::NotAHello => Frame::shutdown(),
            Impostor::WrongSecret => hello(b"not-the-fleet-secret"),
            Impostor::GoneAfterChallenge => return None,
            Impostor::GoneAfterHello => hello(SECRET.as_bytes()),
        };
        write_frame_to(&mut writer, &answer, true).expect("answer the challenge");
        if impostor == Impostor::GoneAfterHello {
            return None;
        }
        let reply = reader.recv(MAX_HANDSHAKE_WIRE_LEN).expect("read").expect("a reply");
        assert!(is_reject(&reply), "{impostor:?} never fired: the master welcomed it");
        Some(reject_error(&reply).kind())
    })
}
