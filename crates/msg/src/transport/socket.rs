//! The one socket link: a framed stream over TCP or a Unix-domain
//! socket, the listener that accepts it, and the dial/backoff that
//! connects it.

use super::framing::{
    read_frame_from, write_frames_to, FrameRead, FrameStream, FrameWrite, MAX_WIRE_LEN,
};
use super::TransportMode;
use crate::frame::Frame;
use crate::pool::BufferPool;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// What [`SocketStream`] needs from a raw connected socket, so one
/// implementation covers both socket families.
trait RawStream: Read + Write + Send + Sized + 'static {
    /// Put a fresh connection in the state framing expects: on TCP,
    /// `TCP_NODELAY` — the protocol's many small control frames must not
    /// sit in Nagle's buffer behind an ACK.
    fn prepare(&self) -> io::Result<()> {
        Ok(())
    }
    fn try_clone_raw(&self) -> io::Result<Self>;
    fn set_read_timeout_raw(&self, t: Option<Duration>) -> io::Result<()>;
    fn peer_desc(&self) -> String;
}

impl RawStream for TcpStream {
    fn prepare(&self) -> io::Result<()> {
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

/// Size of a read half's buffer: a `read` syscall takes in up to this
/// many bytes of whatever frames are queued on the socket.
const READ_BUFFER: usize = 64 * 1024;

static READ_CALLS: AtomicU64 = AtomicU64::new(0);
static WRITE_CALLS: AtomicU64 = AtomicU64::new(0);
static FRAMES_READ: AtomicU64 = AtomicU64::new(0);

/// What this process's socket streams have done so far, all threads and
/// all links together: `read` and `write` calls on their sockets, and
/// frames received. Monotonic; snapshot it around a workload to count
/// syscalls per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketCalls {
    /// `read` calls on a socket.
    pub reads: u64,
    /// `write` / `writev` calls on a socket.
    pub writes: u64,
    /// Whole frames received.
    pub frames_read: u64,
}

/// This process's socket call and frame counts so far.
pub fn socket_calls() -> SocketCalls {
    SocketCalls {
        reads: READ_CALLS.load(Ordering::Relaxed),
        writes: WRITE_CALLS.load(Ordering::Relaxed),
        frames_read: FRAMES_READ.load(Ordering::Relaxed),
    }
}

/// A raw socket whose every `read` and `write` call is counted in
/// [`socket_calls`].
struct Counted<S>(S);

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        READ_CALLS.fetch_add(1, Ordering::Relaxed);
        self.0.read(buf)
    }
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        WRITE_CALLS.fetch_add(1, Ordering::Relaxed);
        self.0.write(buf)
    }
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        WRITE_CALLS.fetch_add(1, Ordering::Relaxed);
        self.0.write_vectored(bufs)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// The socket-backed [`FrameStream`]: a read half and a write half over
/// one socket, handed out separately by [`FrameStream::split`]. Every
/// frame carries and verifies the CRC32C trailer.
struct SocketStream<S: RawStream> {
    read: ReadHalf<S>,
    write: WriteHalf<S>,
}

/// Reads frames through a [`READ_BUFFER`]-byte buffer. The handshake
/// reads through the same buffer before the split, and the split moves
/// it here whole, so frames a peer sent right behind its handshake reply
/// are not lost.
struct ReadHalf<S: RawStream> {
    stream: BufReader<Counted<S>>,
    pool: BufferPool,
}

/// Writes frames straight to the socket, each batch in one vectored
/// write.
struct WriteHalf<S: RawStream> {
    stream: Counted<S>,
}

impl<S: RawStream> SocketStream<S> {
    fn boxed(stream: S) -> io::Result<Box<dyn FrameStream>> {
        stream.prepare()?;
        let writer = Counted(stream.try_clone_raw()?);
        let reader = BufReader::with_capacity(READ_BUFFER, Counted(stream));
        Ok(Box::new(SocketStream {
            read: ReadHalf { stream: reader, pool: BufferPool::new() },
            write: WriteHalf { stream: writer },
        }))
    }
}

impl<S: RawStream> ReadHalf<S> {
    fn recv(&mut self, max_wire_len: usize) -> io::Result<Option<Frame>> {
        let frame = read_frame_from(&mut self.stream, &self.pool, max_wire_len, true)?;
        FRAMES_READ.fetch_add(u64::from(frame.is_some()), Ordering::Relaxed);
        Ok(frame)
    }
}

impl<S: RawStream> FrameRead for ReadHalf<S> {
    fn recv_frame(&mut self) -> io::Result<Option<Frame>> {
        self.recv(MAX_WIRE_LEN)
    }
}

impl<S: RawStream> FrameWrite for WriteHalf<S> {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.send_frames(std::slice::from_ref(frame))
    }

    fn send_frames(&mut self, frames: &[Frame]) -> io::Result<()> {
        write_frames_to(&mut self.stream, frames, true)
    }
}

impl<S: RawStream> FrameRead for SocketStream<S> {
    fn recv_frame(&mut self) -> io::Result<Option<Frame>> {
        self.read.recv_frame()
    }
}

impl<S: RawStream> FrameWrite for SocketStream<S> {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.write.send_frame(frame)
    }

    fn send_frames(&mut self, frames: &[Frame]) -> io::Result<()> {
        self.write.send_frames(frames)
    }
}

impl<S: RawStream> FrameStream for SocketStream<S> {
    fn recv_frame_capped(&mut self, max_wire_len: usize) -> io::Result<Option<Frame>> {
        self.read.recv(max_wire_len)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.read.stream.get_ref().0.set_read_timeout_raw(timeout)
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn FrameRead>, Box<dyn FrameWrite>)> {
        // Both halves share the socket (and so the read deadline set
        // before the split).
        // The read half keeps the handshake's buffer, with whatever it
        // already holds, but starts a pool of its own rather than
        // inheriting the handshake's: seeding the link's receive pool
        // with buffers the enrolling thread allocated measured +9% peak
        // RSS on the LU-over-TCP benchmark workload (82 -> 90 MiB).
        let SocketStream { read, write } = *self;
        let reader = ReadHalf { stream: read.stream, pool: BufferPool::new() };
        Ok((Box::new(reader), Box::new(write)))
    }

    fn peer(&self) -> String {
        self.write.stream.0.peer_desc()
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

impl TransportListener {
    /// Bind a TCP listener on `addr`: `127.0.0.1:0` for a loopback
    /// listener on an ephemeral port, or e.g. `0.0.0.0:4455` for workers
    /// on other hosts.
    pub fn bind_tcp(addr: &str) -> io::Result<Self> {
        Ok(TransportListener::Tcp(TcpListener::bind(addr)?))
    }

    /// Bind a Unix-domain listener on an explicit socket path. The path
    /// is unlinked when the listener drops.
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

    /// Accept the next connection (blocking).
    pub fn accept(&self) -> io::Result<Box<dyn FrameStream>> {
        match self {
            TransportListener::Tcp(l) => SocketStream::boxed(l.accept()?.0),
            #[cfg(unix)]
            TransportListener::Uds { listener, .. } => SocketStream::boxed(listener.accept()?.0),
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

/// A connected pair of `mode`'s sockets, (master end, worker end), that
/// no other process can reach: a Unix socket pair with no path, or a
/// loopback TCP connection made through a private listener that is gone
/// when this returns. How a session wires its in-process workers.
pub(crate) fn stream_pair(mode: TransportMode) -> io::Result<(Box<dyn FrameStream>, Box<dyn FrameStream>)> {
    match mode {
        TransportMode::Tcp => {
            let (master, worker) = tcp_pair(&TcpListener::bind("127.0.0.1:0")?)?;
            Ok((SocketStream::boxed(master)?, SocketStream::boxed(worker)?))
        }
        #[cfg(unix)]
        TransportMode::Uds => {
            let (master, worker) = UnixStream::pair()?;
            Ok((SocketStream::boxed(master)?, SocketStream::boxed(worker)?))
        }
        _ => Err(io::Error::new(io::ErrorKind::InvalidInput, format!("{mode:?} has no socket pair"))),
    }
}

/// Dial `listener` and accept the connection just dialed, (accepted end,
/// dialed end). Whatever else the listener queued is dropped unpaired: a
/// stream is paired only if its peer is the dialed end's own address.
pub(super) fn tcp_pair(listener: &TcpListener) -> io::Result<(TcpStream, TcpStream)> {
    let dialed = TcpStream::connect(listener.local_addr()?)?;
    let own = dialed.local_addr()?;
    loop {
        let (accepted, peer) = listener.accept()?;
        if peer == own {
            return Ok((accepted, dialed));
        }
    }
}

/// Dial an endpoint string produced by [`TransportListener::endpoint`]:
/// `tcp://host:port` or `uds:/path/to/socket`.
pub fn connect(endpoint: &str) -> io::Result<Box<dyn FrameStream>> {
    if let Some(addr) = endpoint.strip_prefix("tcp://") {
        return SocketStream::boxed(TcpStream::connect(addr)?);
    }
    #[cfg(unix)]
    if let Some(path) = endpoint.strip_prefix("uds:") {
        return SocketStream::boxed(UnixStream::connect(path)?);
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

/// [`connect`] with retries, until `deadline` wall time has
/// elapsed. **Transient** failures are the ones a worker racing the
/// master's startup (or a fleet mid-churn) meets: the listener not up
/// yet (`ConnectionRefused`, a not-yet-created Unix socket path), a
/// reset/aborted accept backlog, a peer that closed before answering.
/// Everything else — a malformed endpoint, an unsupported scheme — will
/// not change on retry and fails immediately; retrying would only burn
/// the deadline before reporting the same error.
pub fn connect_with_retry(endpoint: &str, deadline: Duration) -> io::Result<Box<dyn FrameStream>> {
    retry_transient(deadline, || connect(endpoint))
}
