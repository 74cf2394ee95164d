//! The one socket link: a framed stream over TCP or a Unix-domain
//! socket, the listener that accepts it, and the dial/backoff that
//! connects it.

use super::fault::{FaultSpec, FaultState};
use super::framing::{
    read_frame_from, write_frame_to, FrameRead, FrameStream, FrameWrite, MAX_WIRE_LEN,
};
use super::TransportMode;
use crate::frame::Frame;
use crate::pool::BufferPool;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What [`SocketStream`] needs from a raw connected socket, so one
/// implementation covers both socket families.
trait RawStream: Read + Write + Send + Sized + 'static {
    /// Put a fresh connection in the state framing expects: blocking
    /// mode (an accept on a non-blocking listener may hand out a
    /// non-blocking socket) and, on TCP, `TCP_NODELAY` — the protocol's
    /// many small control frames must not sit in Nagle's buffer behind
    /// an ACK.
    fn prepare(&self) -> io::Result<()>;
    fn try_clone_raw(&self) -> io::Result<Self>;
    fn set_read_timeout_raw(&self, t: Option<Duration>) -> io::Result<()>;
    fn peer_desc(&self) -> String;
}

impl RawStream for TcpStream {
    fn prepare(&self) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_nodelay(true)
    }
    fn try_clone_raw(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout_raw(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn peer_desc(&self) -> String {
        match self.peer_addr() {
            Ok(a) => format!("tcp://{a}"),
            Err(_) => "tcp://<unknown>".into(),
        }
    }
}

#[cfg(unix)]
impl RawStream for UnixStream {
    fn prepare(&self) -> io::Result<()> {
        self.set_nonblocking(false)
    }
    fn try_clone_raw(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout_raw(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn peer_desc(&self) -> String {
        "uds://<peer>".into()
    }
}

/// The socket-backed [`FrameStream`], and — after [`FrameStream::split`]
/// — each of its halves. Every frame carries and verifies the CRC32C
/// trailer. With a [`FaultSpec`] the send path consults the shared fault
/// trigger first; the honest stream is the same type with `fault: None`.
struct SocketStream<S: RawStream> {
    stream: S,
    pool: BufferPool,
    fault: Option<Arc<FaultState>>,
}

impl<S: RawStream> SocketStream<S> {
    fn boxed(stream: S, fault: Option<FaultSpec>) -> io::Result<Box<dyn FrameStream>> {
        stream.prepare()?;
        let fault = fault.map(|spec| Arc::new(FaultState::new(spec)));
        Ok(Box::new(SocketStream { stream, pool: BufferPool::new(), fault }))
    }
}

impl<S: RawStream> FrameWrite for SocketStream<S> {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        if let Some(fault) = &self.fault {
            if !fault.on_send(frame, &mut self.stream)? {
                return Ok(());
            }
        }
        write_frame_to(&mut self.stream, frame, true)
    }
}

impl<S: RawStream> FrameRead for SocketStream<S> {
    fn recv_frame(&mut self) -> io::Result<Option<Frame>> {
        self.recv_frame_capped(MAX_WIRE_LEN)
    }
}

impl<S: RawStream> FrameStream for SocketStream<S> {
    fn recv_frame_capped(&mut self, max_wire_len: usize) -> io::Result<Option<Frame>> {
        read_frame_from(&mut self.stream, &self.pool, max_wire_len, true)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout_raw(timeout)
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn FrameRead>, Box<dyn FrameWrite>)> {
        // The clone shares the socket (and so the read deadline set
        // before the split); the fault trigger stays with the write half.
        // The read half starts a pool of its own rather than inheriting
        // the handshake's: seeding the link's receive pool with buffers
        // the enrolling thread allocated measured +9% peak RSS on the
        // LU-over-TCP benchmark workload (82 -> 90 MiB).
        let stream = self.stream.try_clone_raw()?;
        let reader = SocketStream { stream, pool: BufferPool::new(), fault: None };
        Ok((Box::new(reader), self))
    }

    fn peer(&self) -> String {
        self.stream.peer_desc()
    }
}

/// A listening socket handing out [`FrameStream`] connections. The Unix
/// variant owns its socket path and unlinks it on drop.
pub enum TransportListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener plus the path it is bound to.
    #[cfg(unix)]
    Uds {
        /// The bound listener.
        listener: UnixListener,
        /// Socket path, unlinked when the listener drops.
        path: PathBuf,
    },
}

/// Distinguishes concurrently-bound Unix socket paths within one process.
static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TransportListener {
    /// Bind a loopback listener for `mode` ([`TransportMode::Channel`] has
    /// no listener and is rejected): TCP on `127.0.0.1` with an ephemeral
    /// port, or a Unix socket under the system temp directory.
    pub fn bind(mode: TransportMode) -> io::Result<Self> {
        match mode {
            TransportMode::Channel => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the channel transport has no listener",
            )),
            TransportMode::Tcp => Self::bind_tcp("127.0.0.1:0"),
            #[cfg(unix)]
            TransportMode::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "mwp-{}-{}.sock",
                    std::process::id(),
                    UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
                ));
                Self::bind_uds(path)
            }
            #[cfg(not(unix))]
            TransportMode::Uds => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// Bind a TCP listener on an explicit address (e.g. `0.0.0.0:4455`
    /// for workers on other hosts) — how a master exposes its listener
    /// beyond loopback.
    pub fn bind_tcp(addr: &str) -> io::Result<Self> {
        Ok(TransportListener::Tcp(TcpListener::bind(addr)?))
    }

    /// Bind a Unix-domain listener on an explicit socket path. The path
    /// is unlinked when the listener drops, like [`bind`](Self::bind)'s
    /// temp-dir sockets.
    #[cfg(unix)]
    pub fn bind_uds(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let listener = UnixListener::bind(&path)?;
        Ok(TransportListener::Uds { listener, path })
    }

    /// The endpoint string workers dial: `tcp://ip:port` or `uds:/path`.
    pub fn endpoint(&self) -> String {
        match self {
            TransportListener::Tcp(l) => match l.local_addr() {
                Ok(a) => format!("tcp://{a}"),
                Err(_) => "tcp://<unknown>".into(),
            },
            #[cfg(unix)]
            TransportListener::Uds { path, .. } => format!("uds:{}", path.display()),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            TransportListener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            TransportListener::Uds { listener, .. } => listener.set_nonblocking(nonblocking),
        }
    }

    /// One `accept` call in whatever blocking mode the listener is in.
    fn accept_once(&self) -> io::Result<Box<dyn FrameStream>> {
        match self {
            TransportListener::Tcp(l) => SocketStream::boxed(l.accept()?.0, None),
            #[cfg(unix)]
            TransportListener::Uds { listener, .. } => {
                SocketStream::boxed(listener.accept()?.0, None)
            }
        }
    }

    /// Accept the next connection (blocking).
    pub fn accept(&self) -> io::Result<Box<dyn FrameStream>> {
        self.set_nonblocking(false)?;
        self.accept_once()
    }

    /// Accept with a bound: `Ok(None)` if no connection arrived within
    /// `timeout`. Lets an accept loop interleave waiting with liveness
    /// checks (e.g. "did the worker thread that was supposed to dial us
    /// die?") instead of parking forever.
    pub fn accept_timeout(&self, timeout: Duration) -> io::Result<Option<Box<dyn FrameStream>>> {
        self.set_nonblocking(true)?;
        let deadline = Instant::now() + timeout;
        loop {
            match self.accept_once() {
                Ok(stream) => return Ok(Some(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for TransportListener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let TransportListener::Uds { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Dial an endpoint string produced by [`TransportListener::endpoint`]:
/// `tcp://host:port` or `uds:/path/to/socket`. A data-plane `fault` rides
/// the returned stream's send path — the worker binary's `MWP_FAULT`
/// sits on the worker's side of the wire, so every master-side recovery
/// path can be exercised deterministically. Handshake-stage faults are
/// enacted inside [`enroll_with`](super::enroll_with) instead: the
/// connection itself is an honest one.
pub fn connect(endpoint: &str, fault: Option<FaultSpec>) -> io::Result<Box<dyn FrameStream>> {
    let fault = fault.filter(|f| !f.action.is_handshake());
    if let Some(addr) = endpoint.strip_prefix("tcp://") {
        return SocketStream::boxed(TcpStream::connect(addr)?, fault);
    }
    #[cfg(unix)]
    if let Some(path) = endpoint.strip_prefix("uds:") {
        return SocketStream::boxed(UnixStream::connect(path)?, fault);
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("unrecognized endpoint '{endpoint}' (expected tcp://host:port or uds:/path)"),
    ))
}

/// An exponential-backoff retry schedule with jitter and a total-deadline
/// cap. Pure arithmetic over an **injected clock** (the caller reports
/// elapsed time), so the exact schedule is unit-testable without
/// sleeping, and deterministic for a fixed seed.
///
/// Each attempt's nominal delay doubles from `base` up to `max`; the
/// issued delay is jittered to 50–100% of nominal (decorrelating a herd
/// of workers that all found the master's port closed at the same
/// instant) and clipped so `elapsed + delay` never overshoots `deadline`.
pub struct Backoff {
    next: Duration,
    max: Duration,
    deadline: Duration,
    rng: u64,
}

impl Backoff {
    /// A schedule starting at `base`, doubling up to `max`, expiring at
    /// `deadline` total elapsed time. `seed` drives the jitter.
    pub fn new(base: Duration, max: Duration, deadline: Duration, seed: u64) -> Self {
        Backoff { next: base.max(Duration::from_millis(1)), max, deadline, rng: seed | 1 }
    }

    /// The delay to sleep before the next attempt, given `elapsed` total
    /// wall time since the first attempt — or `None` when the deadline
    /// is exhausted and the caller should give up.
    pub fn next_delay(&mut self, elapsed: Duration) -> Option<Duration> {
        if elapsed >= self.deadline {
            return None;
        }
        let nominal = self.next;
        self.next = (self.next * 2).min(self.max);
        // xorshift64* — tiny, seedable, good enough to decorrelate dials.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let unit = (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64
            / (1u64 << 53) as f64;
        let jittered = nominal.mul_f64(0.5 + 0.5 * unit);
        Some(jittered.min(self.deadline - elapsed))
    }
}

/// The one retry loop behind [`connect_with_retry`] and
/// [`enroll_with_retry`](super::enroll_with_retry): run `attempt` until
/// it succeeds, fails permanently, or `deadline` wall time has elapsed,
/// sleeping a jittered exponential [`Backoff`] between tries.
pub(super) fn retry_transient<T>(
    deadline: Duration,
    mut attempt: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let start = Instant::now();
    // 10 ms doubling to 640 ms, the jitter seeded per process.
    let (base, max) = (Duration::from_millis(10), Duration::from_millis(640));
    let mut backoff = Backoff::new(base, max, deadline, u64::from(std::process::id()));
    loop {
        let err = match attempt() {
            Ok(done) => return Ok(done),
            Err(e) => e,
        };
        let transient = matches!(
            err.kind(),
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::NotFound
                | io::ErrorKind::UnexpectedEof
        );
        match backoff.next_delay(start.elapsed()) {
            Some(delay) if transient => thread::sleep(delay),
            _ => return Err(err),
        }
    }
}

/// [`connect`] (fault-free) with retries, until `deadline` wall time has
/// elapsed. **Transient** failures are the ones a worker racing the
/// master's startup (or a fleet mid-churn) meets: the listener not up
/// yet (`ConnectionRefused`, a not-yet-created Unix socket path), a
/// reset/aborted accept backlog, a peer that closed before answering.
/// Everything else — a malformed endpoint, an unsupported scheme — will
/// not change on retry and fails immediately; retrying would only burn
/// the deadline before reporting the same error.
pub fn connect_with_retry(endpoint: &str, deadline: Duration) -> io::Result<Box<dyn FrameStream>> {
    retry_transient(deadline, || connect(endpoint, None))
}
