//! Socket transport: master and workers as separate processes (or hosts).
//!
//! The channel-backed star ([`crate::net::StarNetwork`]) moves [`Frame`]s
//! through in-process channels. This module grows the message stack a
//! second backend with the **same master-side semantics**: frames travel
//! length-prefixed over a TCP or Unix-domain socket, while the one-port
//! arbiter, link pacing, and per-link statistics all stay on the master
//! side of the wire, exactly where the paper's model puts them.
//!
//! The pieces, bottom to top:
//!
//! * **Framing** — [`write_frame_to`] / [`read_frame_from`]: a `u32`
//!   little-endian length prefix followed by the [`Frame::encode`] image
//!   (13-byte header + payload) and — unless `MWP_CHECKSUM=off` — a
//!   CRC32C trailer over the encoded image (see [`checksum_enabled`]),
//!   verified on receive so a flipped bit anywhere in header or payload
//!   surfaces as stream corruption instead of silently wrong
//!   coefficients. Receives land in recycled
//!   [`BufferPool`] buffers and are decoded zero-copy with
//!   [`Frame::decode_bytes`]; adversarial input (truncated streams,
//!   oversized or undersized length prefixes, unknown frame tags,
//!   mismatched checksums) is rejected with an [`std::io::Error`],
//!   never a panic.
//! * **[`FrameRead`] / [`FrameWrite`] / [`FrameStream`]** — the framed
//!   byte-stream abstraction. [`TcpTransport`] and [`UdsTransport`]
//!   implement it; a stream splits into independently-owned read and
//!   write halves so a link can pump both directions concurrently.
//! * **[`TransportListener`] / [`connect`]** — endpoint management with
//!   `tcp://host:port` and `uds:/path` address strings; `MWP_BIND` (see
//!   [`TransportListener::bind_env`]) moves the master off loopback for
//!   real multi-host fleets.
//! * **Handshake** — an authenticated three-frame exchange (protocol
//!   version [`PROTOCOL_VERSION`]): the master opens with a
//!   [challenge](challenge_frame) nonce, the worker answers with a
//!   [`Hello`] (claimed slot, fleet epoch, its own nonce, fingerprint
//!   bytes) carrying an HMAC over the challenge and every asserted field
//!   keyed by the shared fleet secret ([`crate::auth::fleet_secret`]),
//!   and the master closes with a [`Welcome`] (assigned [`WorkerId`],
//!   the worker's `(c, w, m)` parameters, the pacing scale, the
//!   [service id](SERVICE_MATRIX), and the membership epoch) MAC'd over
//!   the worker's nonce — mutual authentication, replay-proof in both
//!   directions. A peer that fails any check gets a [`REJECT`] frame
//!   naming the reason and is dropped; a pre-v2 or future-version peer
//!   degrades to that clean rejection instead of a decode panic. All
//!   frames ride the frame format itself, as `Control` frames with
//!   reserved sentinels.
//! * **[`RemoteLink`]** — the master-facing half of a socket link: a
//!   channel-backed [`MasterSide`] (so [`crate::MasterEndpoint`] is
//!   byte-for-byte the code the channel transport uses) bridged to the
//!   socket by two pump threads. The pumps meter nothing — pacing and
//!   stats happen in the `MasterSide` they feed, so a socket link and a
//!   channel link are indistinguishable to the runtime above.
//! * **[`enroll`]** — the worker-process side: connect, say hello, await
//!   the welcome, and get back a socket-backed [`WorkerEndpoint`] that
//!   the existing worker programs (`mwp-core`'s Algorithm 2 loop, the LU
//!   op server) drive unchanged.
//!
//! Which backend a [`crate::Session`] wires is selected by
//! `MWP_TRANSPORT=channel|tcp|uds` (see [`transport_mode`]) or explicitly
//! via `Session::spawn_with_transport`; out-of-process workers attach via
//! `Session::accept_remote` + the `mwp-worker` binary.

use crate::auth;
use crate::checksum::{crc32c, Crc32c};
use crate::endpoint::WorkerEndpoint;
use crate::frame::{Frame, FrameKind, Tag};
use crate::link::{Link, MasterSide, Pacing};
use crate::pool::BufferPool;
use bytes::Bytes;
use mwp_platform::WorkerId;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::{self, JoinHandle};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Transport selection
// ---------------------------------------------------------------------------

/// Which byte transport carries a session's frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// In-process channels (the default): no serialization at all.
    Channel,
    /// Loopback/remote TCP sockets, length-prefixed frames.
    Tcp,
    /// Unix-domain sockets, same framing as TCP.
    Uds,
}

impl TransportMode {
    /// The names `MWP_TRANSPORT` accepts, in documentation order.
    pub const NAMES: &'static [&'static str] = &["channel", "tcp", "uds"];
}

/// Parse an `MWP_TRANSPORT` value. Empty means "no override" (channel).
/// Unknown values are an error listing the valid names — the same
/// contract as `MWP_KERNEL`: a typo must never silently fall back, or a
/// CI matrix leg that sets the variable would silently test the wrong
/// backend.
pub fn parse_transport_mode(value: &str) -> Result<TransportMode, String> {
    match value {
        "" | "channel" => Ok(TransportMode::Channel),
        "tcp" => Ok(TransportMode::Tcp),
        "uds" => Ok(TransportMode::Uds),
        other => Err(format!(
            "unknown transport '{other}' (valid: {})",
            TransportMode::NAMES.join(", ")
        )),
    }
}

/// The process-wide transport mode: `MWP_TRANSPORT` override if set, else
/// [`TransportMode::Channel`]. Resolved once per process, like the kernel
/// dispatcher's `MWP_KERNEL`.
pub fn transport_mode() -> TransportMode {
    static MODE: OnceLock<TransportMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("MWP_TRANSPORT") {
        Ok(v) => parse_transport_mode(&v).unwrap_or_else(|e| panic!("MWP_TRANSPORT: {e}")),
        Err(_) => TransportMode::Channel,
    })
}

// ---------------------------------------------------------------------------
// Liveness configuration
// ---------------------------------------------------------------------------

/// Default heartbeat period on idle socket links (`MWP_HEARTBEAT_MS`).
pub const DEFAULT_HEARTBEAT_MS: u64 = 1000;
/// Default silence budget before a socket peer is declared dead
/// (`MWP_DEADLINE_MS`). Must exceed the heartbeat period — a healthy
/// peer proves liveness several times per deadline window.
pub const DEFAULT_DEADLINE_MS: u64 = 10_000;

/// Parse a `MWP_*_MS` millisecond value: empty means "no override"
/// (`None`), anything else must be a whole number of milliseconds.
/// Strict, like `MWP_KERNEL`/`MWP_TRANSPORT`: garbage is an error, never
/// a silent fallback.
pub fn parse_millis(value: &str) -> Result<Option<u64>, String> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    v.parse::<u64>()
        .map(Some)
        .map_err(|_| format!("'{value}' is not a whole number of milliseconds"))
}

/// The liveness layer's configuration: `Some((heartbeat, deadline))`
/// when enabled, `None` when either `MWP_HEARTBEAT_MS=0` or
/// `MWP_DEADLINE_MS=0` switched it off.
///
/// When enabled, socket links carry [`Frame::heartbeat`] probes whenever
/// a direction is idle for a heartbeat period, every socket read runs
/// under the deadline, and the failure-aware schedulers treat a worker
/// silent past the deadline as dead. The environment is re-read on each
/// call (like [`handshake_timeout`], and unlike the once-per-process
/// mode switches) so tests can stage different detection bounds within
/// one process.
pub fn liveness() -> Option<(Duration, Duration)> {
    let get = |name: &str, default: u64| match std::env::var(name) {
        Ok(v) => parse_millis(&v)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .unwrap_or(default),
        Err(_) => default,
    };
    let heartbeat = get("MWP_HEARTBEAT_MS", DEFAULT_HEARTBEAT_MS);
    let deadline = get("MWP_DEADLINE_MS", DEFAULT_DEADLINE_MS);
    if heartbeat == 0 || deadline == 0 {
        return None;
    }
    assert!(
        deadline > heartbeat,
        "MWP_DEADLINE_MS ({deadline}) must exceed MWP_HEARTBEAT_MS ({heartbeat}): \
         a peer must get several heartbeats per deadline window or healthy \
         links would be declared dead"
    );
    Some((Duration::from_millis(heartbeat), Duration::from_millis(deadline)))
}

/// The whole-run wall-clock budget (`MWP_RUN_DEADLINE_MS`): `Some` when
/// the variable is set to a nonzero number of milliseconds, `None` when
/// unset or `0` (no budget — runs may take as long as they take). When a
/// run's master loop observes the budget exhausted it broadcasts
/// [`crate::lifecycle::RUN_ABORT`] and returns an abort error instead of
/// a result; the session itself stays serviceable. Re-read per call
/// (like [`liveness`]) so tests can stage a deadline for one run and
/// clear it for the next within a single process.
pub fn run_deadline() -> Option<Duration> {
    match std::env::var("MWP_RUN_DEADLINE_MS") {
        Ok(v) => parse_millis(&v)
            .unwrap_or_else(|e| panic!("MWP_RUN_DEADLINE_MS: {e}"))
            .filter(|&ms| ms != 0)
            .map(Duration::from_millis),
        Err(_) => None,
    }
}

/// Parse an `MWP_CHECKSUM` value: empty means "no override" (checksums
/// **on**, the default), `on`/`off` are explicit. Strict like every
/// other `MWP_*` switch — a typo'd value must never silently run
/// without integrity checking.
pub fn parse_checksum(value: &str) -> Result<bool, String> {
    match value.trim() {
        "" | "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("unknown checksum setting '{other}' (valid: on, off)")),
    }
}

/// Whether socket frames carry (and verify) the CRC32C integrity
/// trailer: `MWP_CHECKSUM=on|off`, default on. The flag changes the wire
/// format — the length prefix covers a 4-byte trailer after the payload
/// — so **master and worker processes must agree on it**: a mixed fleet
/// would misread every frame. Each stream captures the flag once at
/// construction; the environment is re-read per call so tests can stage
/// both formats in one process.
pub fn checksum_enabled() -> bool {
    match std::env::var("MWP_CHECKSUM") {
        Ok(v) => parse_checksum(&v).unwrap_or_else(|e| panic!("MWP_CHECKSUM: {e}")),
        Err(_) => true,
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Hard ceiling on one frame's wire length (header + payload). A length
/// prefix beyond this is treated as stream corruption, not an allocation
/// request — a garbage prefix must never make the receiver reserve
/// gigabytes — and an outbound frame beyond it is a send-side error, so
/// the sender fails fast instead of the receiver blaming corruption.
pub const MAX_WIRE_LEN: usize = 1 << 30;

/// The much smaller ceiling applied while a connection is still
/// **unauthenticated** — reading the enrollment hello/welcome, which are
/// tens of bytes. A pre-enrollment peer must never be able to make the
/// master reserve [`MAX_WIRE_LEN`]-sized buffers by sending one
/// adversarial length prefix.
pub const MAX_HANDSHAKE_WIRE_LEN: usize = 64 * 1024;

/// Wire length of the frame header ([`Frame::encode`]'s fixed prefix):
/// kind (1) + `i` (4) + `j` (4) + run generation (4).
const HEADER_LEN: usize = 13;

/// Write `frame` to `w` as `u32 LE wire length` + the [`Frame::encode`]
/// image, without intermediate allocation: the 17 fixed bytes, the
/// payload (zero-copy from the frame's [`Bytes`]), and — with `checksum`
/// on — a CRC32C over the encoded image (header + payload, **not** the
/// length prefix) as a `u32 LE` trailer covered by the length prefix.
/// All pieces go out in one vectored write, so on a `TCP_NODELAY` socket
/// a frame is one syscall and one segment regardless of the trailer — a
/// separate 4-byte `write` per frame would otherwise double the packet
/// count on small-frame workloads. A frame beyond [`MAX_WIRE_LEN`] is
/// rejected here, on the send side, before any byte hits the wire.
pub fn write_frame_to(w: &mut impl Write, frame: &Frame, checksum: bool) -> io::Result<()> {
    let trailer = if checksum { 4 } else { 0 };
    let wire_len = frame.wire_len() + trailer;
    if wire_len > MAX_WIRE_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("outbound frame of {wire_len} bytes exceeds the {MAX_WIRE_LEN}-byte cap"),
        ));
    }
    let encoded = frame.encode_header();
    let mut prefix = [0u8; 4 + HEADER_LEN];
    prefix[..4].copy_from_slice(&(wire_len as u32).to_le_bytes());
    prefix[4..].copy_from_slice(&encoded);
    let mut trailer_bytes = [0u8; 4];
    if checksum {
        let mut crc = Crc32c::new();
        crc.update(&encoded);
        crc.update(&frame.payload);
        trailer_bytes = crc.finish().to_le_bytes();
    }
    let mut slices = [
        io::IoSlice::new(&prefix),
        io::IoSlice::new(&frame.payload),
        io::IoSlice::new(&trailer_bytes[..trailer]),
    ];
    // Manual write_all_vectored: loop until every byte is out, advancing
    // past whole and partial slices (zero-length slices are skipped by
    // `advance_slices`). Tracking the byte count — rather than testing
    // `slices.is_empty()` — keeps trailing empty slices from stalling
    // the loop.
    let mut remaining = 4 + wire_len;
    let mut slices = &mut slices[..];
    while remaining > 0 {
        match w.write_vectored(slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => {
                remaining -= n;
                io::IoSlice::advance_slices(&mut slices, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read the next frame from `r`: length prefix, then the whole encoded
/// frame into a recycled buffer from `pool`, decoded zero-copy (the
/// frame's payload is a refcounted slice of the pooled buffer, which
/// returns to the pool when the last view drops).
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary). Everything else that is not a whole, well-formed frame is
/// an error: EOF mid-prefix or mid-frame (`UnexpectedEof`), a length
/// prefix shorter than the 13-byte header (plus the 4-byte CRC trailer
/// when `checksum` is on) or larger than `max_wire_len`
/// ([`MAX_WIRE_LEN`] on enrolled links, [`MAX_HANDSHAKE_WIRE_LEN`]
/// during the handshake), a CRC32C trailer that does not match the
/// received image, or an undecodable header (unknown frame kind).
pub fn read_frame_from(
    r: &mut impl Read,
    pool: &BufferPool,
    max_wire_len: usize,
    checksum: bool,
) -> io::Result<Option<Frame>> {
    let mut prefix = [0u8; 4];
    // EOF before the first prefix byte is a clean close; EOF after it is
    // a truncated stream. This is the longest-lived blocking read in the
    // system (a parked worker sits here between runs), so a signal
    // interrupting it must be retried, not reported as a dead peer.
    let first = loop {
        match r.read(&mut prefix[..1]) {
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    };
    if first == 0 {
        return Ok(None);
    }
    r.read_exact(&mut prefix[1..])?;
    let wire_len = u32::from_le_bytes(prefix) as usize;
    let min_len = HEADER_LEN + if checksum { 4 } else { 0 };
    if wire_len < min_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length prefix {wire_len} is shorter than the {min_len}-byte minimum"),
        ));
    }
    if wire_len > max_wire_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length prefix {wire_len} exceeds the {max_wire_len}-byte cap"),
        ));
    }
    let mut read_result = Ok(());
    let buf = pool.bytes_with(wire_len, |buf| {
        buf.resize(wire_len, 0);
        read_result = r.read_exact(buf);
    });
    read_result?;
    let image = if checksum {
        let body = wire_len - 4;
        let presented = u32::from_le_bytes(buf[body..].try_into().expect("4-byte trailer"));
        let computed = crc32c(&buf[..body]);
        if presented != computed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame checksum mismatch: wire says {presented:#010x}, \
                     received bytes hash to {computed:#010x}"
                ),
            ));
        }
        buf.slice(..body)
    } else {
        buf
    };
    Frame::decode_bytes(image).map(Some).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "undecodable frame header (unknown kind tag)")
    })
}

/// The read half of a framed stream. Blocking; `Ok(None)` is a clean EOF.
pub trait FrameRead: Send {
    /// Receive the next frame, or `None` when the peer closed cleanly.
    fn recv_frame(&mut self) -> io::Result<Option<Frame>>;
}

/// The write half of a framed stream. Each frame is flushed on send — the
/// protocol above interleaves small control frames with request/response
/// rounds, so buffering across frames would only add latency.
pub trait FrameWrite: Send {
    /// Send one frame (length-prefixed, flushed).
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()>;
}

/// [`FrameRead`] over any byte reader, with a private [`BufferPool`] so
/// steady-state receives allocate nothing.
pub struct FramedReader<R: Read + Send> {
    inner: R,
    pool: BufferPool,
    checksum: bool,
}

impl<R: Read + Send> FramedReader<R> {
    /// Wrap `inner` with a fresh receive-buffer pool, honoring the
    /// ambient [`checksum_enabled`] setting.
    pub fn new(inner: R) -> Self {
        Self::with_checksum(inner, checksum_enabled())
    }

    /// Wrap `inner` with an explicit checksum setting (tests staging
    /// both wire formats in one process).
    pub fn with_checksum(inner: R, checksum: bool) -> Self {
        FramedReader { inner, pool: BufferPool::new(), checksum }
    }
}

impl<R: Read + Send> FrameRead for FramedReader<R> {
    fn recv_frame(&mut self) -> io::Result<Option<Frame>> {
        read_frame_from(&mut self.inner, &self.pool, MAX_WIRE_LEN, self.checksum)
    }
}

/// [`FrameWrite`] over any byte writer.
pub struct FramedWriter<W: Write + Send> {
    inner: W,
    checksum: bool,
}

impl<W: Write + Send> FramedWriter<W> {
    /// Wrap `inner`, honoring the ambient [`checksum_enabled`] setting.
    pub fn new(inner: W) -> Self {
        Self::with_checksum(inner, checksum_enabled())
    }

    /// Wrap `inner` with an explicit checksum setting.
    pub fn with_checksum(inner: W, checksum: bool) -> Self {
        FramedWriter { inner, checksum }
    }
}

impl<W: Write + Send> FrameWrite for FramedWriter<W> {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame_to(&mut self.inner, frame, self.checksum)
    }
}

/// A connected, bidirectional framed byte stream that can split into
/// independently-owned halves (each direction pumped by its own thread).
///
/// The whole-stream `send_frame`/`recv_frame_capped`/`set_read_timeout`
/// surface exists for the **pre-split enrollment handshake**: an
/// unauthenticated peer's first frames are read on a small wire-length
/// budget and under a read deadline, so a stray or hostile connection
/// can neither trigger a large allocation nor park an accept loop
/// forever. After the handshake the stream splits and the deadline is
/// cleared — enrolled links block indefinitely, as the session protocol
/// requires.
pub trait FrameStream: Send {
    /// Send one frame on the unsplit stream (handshake use).
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()>;
    /// Receive one frame on the unsplit stream, rejecting any wire
    /// length beyond `max_wire_len` (handshake use).
    fn recv_frame_capped(&mut self, max_wire_len: usize) -> io::Result<Option<Frame>>;
    /// Apply (or clear, with `None`) a read deadline to the underlying
    /// socket. A timed-out read surfaces as an ordinary I/O error.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Split into read and write halves.
    fn split(self: Box<Self>) -> io::Result<(Box<dyn FrameRead>, Box<dyn FrameWrite>)>;
    /// Human-readable peer address, for error messages.
    fn peer(&self) -> String;
}

/// TCP-backed [`FrameStream`]. `TCP_NODELAY` is set at construction —
/// the protocol's many small control frames must not sit in Nagle's
/// buffer behind an ACK.
pub struct TcpTransport {
    stream: TcpStream,
    pool: BufferPool,
    checksum: bool,
}

impl TcpTransport {
    /// Wrap a connected stream (sets `TCP_NODELAY`); the checksum flag
    /// is captured once here so the whole stream — handshake and split
    /// halves alike — speaks one wire format.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream, pool: BufferPool::new(), checksum: checksum_enabled() })
    }
}

impl FrameStream for TcpTransport {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame_to(&mut self.stream, frame, self.checksum)
    }

    fn recv_frame_capped(&mut self, max_wire_len: usize) -> io::Result<Option<Frame>> {
        read_frame_from(&mut self.stream, &self.pool, max_wire_len, self.checksum)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn FrameRead>, Box<dyn FrameWrite>)> {
        let reader = self.stream.try_clone()?;
        Ok((
            Box::new(FramedReader::with_checksum(reader, self.checksum)),
            Box::new(FramedWriter::with_checksum(self.stream, self.checksum)),
        ))
    }

    fn peer(&self) -> String {
        match self.stream.peer_addr() {
            Ok(a) => format!("tcp://{a}"),
            Err(_) => "tcp://<unknown>".into(),
        }
    }
}

/// Unix-domain-socket-backed [`FrameStream`].
#[cfg(unix)]
pub struct UdsTransport {
    stream: UnixStream,
    pool: BufferPool,
    checksum: bool,
}

#[cfg(unix)]
impl UdsTransport {
    /// Wrap a connected stream.
    pub fn new(stream: UnixStream) -> Self {
        UdsTransport { stream, pool: BufferPool::new(), checksum: checksum_enabled() }
    }
}

#[cfg(unix)]
impl FrameStream for UdsTransport {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame_to(&mut self.stream, frame, self.checksum)
    }

    fn recv_frame_capped(&mut self, max_wire_len: usize) -> io::Result<Option<Frame>> {
        read_frame_from(&mut self.stream, &self.pool, max_wire_len, self.checksum)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn FrameRead>, Box<dyn FrameWrite>)> {
        let reader = self.stream.try_clone()?;
        Ok((
            Box::new(FramedReader::with_checksum(reader, self.checksum)),
            Box::new(FramedWriter::with_checksum(self.stream, self.checksum)),
        ))
    }

    fn peer(&self) -> String {
        "uds://<peer>".into()
    }
}

// ---------------------------------------------------------------------------
// Listeners and dialing
// ---------------------------------------------------------------------------

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
            TransportMode::Tcp => Ok(TransportListener::Tcp(TcpListener::bind("127.0.0.1:0")?)),
            #[cfg(unix)]
            TransportMode::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "mwp-{}-{}.sock",
                    std::process::id(),
                    UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
                ));
                let listener = UnixListener::bind(&path)?;
                Ok(TransportListener::Uds { listener, path })
            }
            #[cfg(not(unix))]
            TransportMode::Uds => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// Bind a TCP listener on an explicit address (e.g. `0.0.0.0:4455`
    /// for workers on other hosts).
    pub fn bind_tcp(addr: &str) -> io::Result<Self> {
        Ok(TransportListener::Tcp(TcpListener::bind(addr)?))
    }

    /// Bind a Unix-domain listener on an explicit socket path. The path
    /// is unlinked when the listener drops, like [`bind`](Self::bind)'s
    /// temp-dir sockets.
    #[cfg(unix)]
    pub fn bind_uds(path: &str) -> io::Result<Self> {
        let path = PathBuf::from(path);
        let listener = UnixListener::bind(&path)?;
        Ok(TransportListener::Uds { listener, path })
    }

    /// Bind honoring `MWP_BIND` (see [`parse_bind_spec`]): an explicit
    /// `tcp://ip:port` or `uds:/path` address when the variable is set —
    /// how a master exposes its listener beyond loopback — else exactly
    /// [`bind`](Self::bind)'s loopback/temp-dir default. The bind
    /// address's scheme must agree with `mode`: a `tcp://` bind under
    /// `MWP_TRANSPORT=uds` is a configuration contradiction and errors
    /// rather than silently ignoring one of the two switches.
    pub fn bind_env(mode: TransportMode) -> io::Result<Self> {
        let spec = match std::env::var("MWP_BIND") {
            Ok(v) => parse_bind_spec(&v).unwrap_or_else(|e| panic!("MWP_BIND: {e}")),
            Err(_) => None,
        };
        let Some(spec) = spec else { return Self::bind(mode) };
        let mismatch = |scheme: &str| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("MWP_BIND is a {scheme} address but the transport mode is {mode:?}"),
            )
        };
        if let Some(addr) = spec.strip_prefix("tcp://") {
            if mode != TransportMode::Tcp {
                return Err(mismatch("tcp://"));
            }
            return Self::bind_tcp(addr);
        }
        #[cfg(unix)]
        if let Some(path) = spec.strip_prefix("uds:") {
            if mode != TransportMode::Uds {
                return Err(mismatch("uds:"));
            }
            return Self::bind_uds(path);
        }
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("MWP_BIND '{spec}' is not supported on this platform"),
        ))
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
            TransportListener::Tcp(l) => {
                l.set_nonblocking(false)?;
                let (stream, _) = l.accept()?;
                Ok(Box::new(TcpTransport::new(stream)?))
            }
            #[cfg(unix)]
            TransportListener::Uds { listener, .. } => {
                listener.set_nonblocking(false)?;
                let (stream, _) = listener.accept()?;
                Ok(Box::new(UdsTransport::new(stream)))
            }
        }
    }

    /// Accept with a bound: `Ok(None)` if no connection arrived within
    /// `timeout`. Lets an accept loop interleave waiting with liveness
    /// checks (e.g. "did the worker thread that was supposed to dial us
    /// die?") instead of parking forever.
    pub fn accept_timeout(&self, timeout: Duration) -> io::Result<Option<Box<dyn FrameStream>>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let pending = match self {
                TransportListener::Tcp(l) => {
                    l.set_nonblocking(true)?;
                    match l.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false)?;
                            return Ok(Some(Box::new(TcpTransport::new(stream)?)));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
                        Err(e) => return Err(e),
                    }
                }
                #[cfg(unix)]
                TransportListener::Uds { listener, .. } => {
                    listener.set_nonblocking(true)?;
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false)?;
                            return Ok(Some(Box::new(UdsTransport::new(stream))));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
                        Err(e) => return Err(e),
                    }
                }
            };
            debug_assert!(pending);
            if std::time::Instant::now() >= deadline {
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
/// `tcp://host:port` or `uds:/path/to/socket`.
pub fn connect(endpoint: &str) -> io::Result<Box<dyn FrameStream>> {
    if let Some(addr) = endpoint.strip_prefix("tcp://") {
        return Ok(Box::new(TcpTransport::new(TcpStream::connect(addr)?)?));
    }
    #[cfg(unix)]
    if let Some(path) = endpoint.strip_prefix("uds:") {
        return Ok(Box::new(UdsTransport::new(UnixStream::connect(path)?)));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("unrecognized endpoint '{endpoint}' (expected tcp://host:port or uds:/path)"),
    ))
}

/// Parse an `MWP_BIND` value: empty means "no override" (`None` — the
/// master binds loopback), otherwise an explicit `tcp://ip:port` or
/// `uds:/path` listen address. Strict, like every other `MWP_*` switch:
/// a typo'd bind address must error, not silently leave the master on
/// loopback with remote workers dialing a listener that does not exist.
pub fn parse_bind_spec(value: &str) -> Result<Option<String>, String> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    let valid_tcp = v.strip_prefix("tcp://").is_some_and(|a| !a.is_empty());
    let valid_uds = v.strip_prefix("uds:").is_some_and(|p| !p.is_empty());
    if valid_tcp || valid_uds {
        Ok(Some(v.to_string()))
    } else {
        Err(format!("unknown bind address '{value}' (valid: tcp://ip:port, uds:/path)"))
    }
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

    /// The schedule [`connect_with_retry`] uses: 10 ms doubling to 640 ms,
    /// seeded per process.
    pub fn for_dial(deadline: Duration) -> Self {
        Backoff::new(
            Duration::from_millis(10),
            Duration::from_millis(640),
            deadline,
            u64::from(std::process::id()),
        )
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

/// Dial with retries: a worker process racing the master's `bind` retries
/// **transient** dial failures (`ConnectionRefused`, a not-yet-created
/// Unix socket path, a reset/aborted accept backlog) on a jittered
/// exponential [`Backoff`] until `deadline` wall time has elapsed.
/// Permanent errors — a malformed endpoint, an unsupported scheme — fail
/// immediately; retrying them would only burn the deadline before
/// reporting the same error.
pub fn connect_with_retry(endpoint: &str, deadline: Duration) -> io::Result<Box<dyn FrameStream>> {
    connect_with_retry_faulty(endpoint, deadline, None)
}

// ---------------------------------------------------------------------------
// Deterministic fault injection (MWP_FAULT)
// ---------------------------------------------------------------------------

/// What a faulty transport does once its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Abort the process — no cleanup, no goodbye frame, the socket is
    /// torn down by the OS. The deterministic stand-in for `kill -9`.
    Kill,
    /// Silently discard every subsequent outbound frame: the peer sees a
    /// healthy socket that has gone mute (detected only by deadline).
    Drop,
    /// Sleep this long before each subsequent outbound frame: a wedged
    /// worker (detected by deadline when the delay exceeds it).
    Delay(Duration),
    /// Write a torn frame — correct length prefix, half the bytes — then
    /// fail every later write: the peer sees stream corruption.
    Truncate,
    /// Flip one bit in the trigger frame's encoded image (after the
    /// CRC32C trailer was computed over the clean bytes) and send it —
    /// once. Earlier and later frames pass unharmed, so the stream
    /// itself stays healthy: with checksums on the receiver detects the
    /// flip and declares the link corrupt; with them off the flipped
    /// payload would be delivered as silently wrong coefficients — the
    /// very failure the checksum exists to catch.
    Corrupt,
    /// Capture outbound data frames and, once the trigger count is
    /// reached **and** a frame from a previous run generation has been
    /// captured, replay that stale frame (verbatim wire image, valid
    /// checksum) ahead of the real one — a delayed duplicate from an
    /// earlier run surfacing mid-run. The receiver's generation check
    /// must reject it structurally; nothing of the old run may leak
    /// into the new one.
    Stale,
    /// Handshake-stage fault: instead of a hello, send an unrelated
    /// frame — a peer that does not speak the enrollment protocol. The
    /// master must reject it (protocol/version) and keep accepting.
    BadHello,
    /// Handshake-stage fault: send a well-formed hello whose HMAC is
    /// corrupted — a peer without the fleet secret. The master must
    /// reject it (authentication) and keep accepting.
    BadAuth,
}

impl FaultAction {
    /// Handshake-stage faults fire once, inside [`enroll_with`], instead
    /// of wrapping the stream's send path like the data-plane faults.
    pub fn is_handshake(self) -> bool {
        matches!(self, FaultAction::BadHello | FaultAction::BadAuth)
    }
}

/// A deterministic transport fault: after `after` outbound data frames
/// (heartbeats are not counted — their timing is wall-clock-driven and
/// would make the trigger nondeterministic), the stream performs its
/// [`FaultAction`]. Parsed from `MWP_FAULT` by [`parse_fault_spec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The misbehavior.
    pub action: FaultAction,
    /// How many outbound data frames pass unharmed first.
    pub after: u64,
}

/// Parse an `MWP_FAULT` value: empty means "no fault" (`None`);
/// otherwise `kill:<n>`, `drop:<n>`, `delay:<n>:<ms>`, `truncate:<n>`,
/// `corrupt:<n>`, or `stale:<n>`, where `<n>` is the number of outbound
/// data frames that pass before the fault fires — or a bare `badhello` /
/// `badauth` handshake fault, which fires at enrollment (there is no
/// frame count to wait for: the handshake is the first exchange).
/// Strict: anything else is an error naming the valid forms.
pub fn parse_fault_spec(value: &str) -> Result<Option<FaultSpec>, String> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    let bad = || {
        format!(
            "unknown fault '{value}' (valid: kill:<n>, drop:<n>, delay:<n>:<ms>, truncate:<n>, \
             corrupt:<n>, stale:<n>, badhello, badauth)"
        )
    };
    match v {
        "badhello" => return Ok(Some(FaultSpec { action: FaultAction::BadHello, after: 0 })),
        "badauth" => return Ok(Some(FaultSpec { action: FaultAction::BadAuth, after: 0 })),
        _ => {}
    }
    let mut parts = v.split(':');
    let action = parts.next().unwrap_or("");
    let after: u64 = parts.next().and_then(|n| n.parse().ok()).ok_or_else(bad)?;
    let spec = match (action, parts.next()) {
        ("kill", None) => FaultSpec { action: FaultAction::Kill, after },
        ("drop", None) => FaultSpec { action: FaultAction::Drop, after },
        ("truncate", None) => FaultSpec { action: FaultAction::Truncate, after },
        ("corrupt", None) => FaultSpec { action: FaultAction::Corrupt, after },
        ("stale", None) => FaultSpec { action: FaultAction::Stale, after },
        ("delay", Some(ms)) => {
            let ms: u64 = ms.parse().map_err(|_| bad())?;
            FaultSpec { action: FaultAction::Delay(Duration::from_millis(ms)), after }
        }
        _ => return Err(bad()),
    };
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(Some(spec))
}

/// The `MWP_FAULT` environment spec, strictly parsed (a typo panics —
/// a chaos leg that silently ran without its fault would be a green CI
/// lying about coverage).
pub fn fault_spec_from_env() -> Option<FaultSpec> {
    match std::env::var("MWP_FAULT") {
        Ok(v) => parse_fault_spec(&v).unwrap_or_else(|e| panic!("MWP_FAULT: {e}")),
        Err(_) => None,
    }
}

/// Shared trigger state of one faulty connection: counts outbound data
/// frames across the unsplit stream and its split write half.
struct FaultState {
    spec: FaultSpec,
    sent: AtomicU64,
    poisoned: std::sync::atomic::AtomicBool,
    /// Whether this stream's wire format carries the CRC32C trailer —
    /// captured once so replayed/corrupted images match what the honest
    /// path would have written.
    checksum: bool,
    /// `stale` capture: the most recent outbound data frame's (run
    /// generation, full wire image). When a frame from a *newer* run
    /// comes through, the held image is promoted to `stale_image` — a
    /// guaranteed previous-generation frame.
    last: std::sync::Mutex<Option<(u32, Vec<u8>)>>,
    /// `stale` replay material: a verbatim wire image from a previous
    /// run generation, valid checksum and all.
    stale_image: std::sync::Mutex<Option<Vec<u8>>>,
    /// The stale replay fires at most once.
    fired: std::sync::atomic::AtomicBool,
}

/// A frame's full wire image — length prefix, header, payload, and (when
/// `checksum` is on) CRC trailer — exactly as the honest write path
/// would emit it.
fn wire_image(frame: &Frame, checksum: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + frame.wire_len() + 4);
    write_frame_to(&mut out, frame, checksum).expect("writing to a Vec cannot fail");
    out
}

impl FaultState {
    fn new(spec: FaultSpec) -> Self {
        FaultState {
            spec,
            sent: AtomicU64::new(0),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            checksum: checksum_enabled(),
            last: std::sync::Mutex::new(None),
            stale_image: std::sync::Mutex::new(None),
            fired: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Run one outbound frame through the fault: `Ok(true)` forward it,
    /// `Ok(false)` swallow it, `Err` fail the write. May sleep (delay),
    /// abort the process (kill), or poison the writer (truncate).
    fn on_send(&self, frame: &Frame, w: &mut dyn Write) -> io::Result<bool> {
        use std::sync::atomic::Ordering::Relaxed;
        if self.poisoned.load(Relaxed) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "faulty stream is torn"));
        }
        if frame.tag.kind == FrameKind::Heartbeat {
            // Heartbeats neither count nor trip faults — except on a mute
            // or torn stream, which swallows them like everything else.
            return Ok(!matches!(
                self.spec.action,
                FaultAction::Drop if self.sent.load(Relaxed) >= self.spec.after
            ));
        }
        let n = self.sent.fetch_add(1, Relaxed);
        if self.spec.action == FaultAction::Stale {
            return self.stale_on_send(frame, n, w);
        }
        if n < self.spec.after {
            return Ok(true);
        }
        match self.spec.action {
            FaultAction::Kill => std::process::abort(),
            FaultAction::Drop => Ok(false),
            FaultAction::Delay(d) => {
                thread::sleep(d);
                Ok(true)
            }
            FaultAction::Truncate => {
                // A torn frame: honest length prefix, half the bytes.
                let wire_len = frame.wire_len() + if self.checksum { 4 } else { 0 };
                w.write_all(&(wire_len as u32).to_le_bytes())?;
                let image = frame.encode();
                w.write_all(&image[..image.len() / 2])?;
                w.flush()?;
                self.poisoned.store(true, Relaxed);
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "fault: frame torn mid-write"))
            }
            FaultAction::Corrupt => {
                // Fires exactly once: later frames pass unharmed, so the
                // stream stays usable and only the receiver's checksum
                // verdict decides the link's fate.
                if n > self.spec.after {
                    return Ok(true);
                }
                let mut image = wire_image(frame, self.checksum);
                // Flip one bit past the length prefix — in the payload
                // when there is one, else in the header — while leaving
                // the CRC trailer itself intact, so the trailer honestly
                // vouches for bytes that are no longer there.
                let body_end = image.len() - if self.checksum { 4 } else { 0 };
                let flip_at = (4 + HEADER_LEN).min(body_end - 1);
                image[flip_at] ^= 0x01;
                w.write_all(&image)?;
                w.flush()?;
                Ok(false)
            }
            FaultAction::Stale => unreachable!("handled above"),
            // Handshake faults never reach the stream wrapper — they are
            // consumed by `enroll_with` before any data frame exists.
            FaultAction::BadHello | FaultAction::BadAuth => Ok(true),
        }
    }

    /// The `stale` fault's send path: capture run-stamped data frames,
    /// promote a captured image to replay material once a newer run
    /// generation appears, and — at the trigger count, once — write the
    /// stale image ahead of the real frame.
    fn stale_on_send(&self, frame: &Frame, n: u64, w: &mut dyn Write) -> io::Result<bool> {
        use std::sync::atomic::Ordering::Relaxed;
        // Only run-stamped data frames are capture-worthy: control
        // traffic (hello, run sentinels) rides run 0 or is structurally
        // special, and replaying it would test the wrong rejection.
        if frame.tag.kind.is_block() && frame.run != 0 {
            let image = wire_image(frame, self.checksum);
            let mut last = self.last.lock().expect("fault capture lock");
            if let Some((run, held)) = last.take() {
                if run != frame.run {
                    let mut stale = self.stale_image.lock().expect("fault replay lock");
                    if stale.is_none() {
                        *stale = Some(held);
                    }
                }
            }
            *last = Some((frame.run, image));
        }
        if n >= self.spec.after && !self.fired.load(Relaxed) {
            let replay = self.stale_image.lock().expect("fault replay lock").take();
            if let Some(image) = replay {
                self.fired.store(true, Relaxed);
                w.write_all(&image)?;
                w.flush()?;
            }
        }
        Ok(true)
    }
}

/// Minimal surface the fault wrapper needs from a raw socket, so one
/// generic implementation covers TCP and UDS.
trait RawStream: Read + Write + Send + Sized + 'static {
    fn try_clone_raw(&self) -> io::Result<Self>;
    fn set_read_timeout_raw(&self, t: Option<Duration>) -> io::Result<()>;
    fn peer_desc(&self) -> String;
}

impl RawStream for TcpStream {
    fn try_clone_raw(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout_raw(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn peer_desc(&self) -> String {
        match self.peer_addr() {
            Ok(a) => format!("tcp://{a} (faulty)"),
            Err(_) => "tcp://<unknown> (faulty)".into(),
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
        "uds://<peer> (faulty)".into()
    }
}

/// A [`FrameStream`] whose **outbound** frames run through a
/// [`FaultSpec`] trigger (reads are untouched — the faults model a
/// misbehaving *worker*, and the wrapper sits on the worker's side of
/// the wire). Splitting keeps the trigger state shared, so frames sent
/// before the split count toward the trigger.
struct FaultyStream<S: RawStream> {
    stream: S,
    pool: BufferPool,
    state: std::sync::Arc<FaultState>,
}

impl<S: RawStream> FaultyStream<S> {
    fn new(stream: S, spec: FaultSpec) -> Self {
        FaultyStream { stream, pool: BufferPool::new(), state: std::sync::Arc::new(FaultState::new(spec)) }
    }
}

impl<S: RawStream> FrameStream for FaultyStream<S> {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        if self.state.on_send(frame, &mut self.stream)? {
            write_frame_to(&mut self.stream, frame, self.state.checksum)?;
        }
        Ok(())
    }

    fn recv_frame_capped(&mut self, max_wire_len: usize) -> io::Result<Option<Frame>> {
        read_frame_from(&mut self.stream, &self.pool, max_wire_len, self.state.checksum)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout_raw(timeout)
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn FrameRead>, Box<dyn FrameWrite>)> {
        let reader = self.stream.try_clone_raw()?;
        Ok((
            Box::new(FramedReader::with_checksum(reader, self.state.checksum)),
            Box::new(FaultyWriter { inner: self.stream, state: self.state }),
        ))
    }

    fn peer(&self) -> String {
        self.stream.peer_desc()
    }
}

/// The write half of a split [`FaultyStream`].
struct FaultyWriter<S: RawStream> {
    inner: S,
    state: std::sync::Arc<FaultState>,
}

impl<S: RawStream> FrameWrite for FaultyWriter<S> {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        if self.state.on_send(frame, &mut self.inner)? {
            write_frame_to(&mut self.inner, frame, self.state.checksum)?;
        }
        Ok(())
    }
}

/// Dial `endpoint` and wrap the connection in `fault` when one is given
/// (otherwise identical to [`connect`]). The worker binary's connect
/// path: `MWP_FAULT` wraps the worker's side of the wire, so every
/// master-side recovery path can be exercised deterministically.
pub fn connect_faulty(endpoint: &str, fault: Option<FaultSpec>) -> io::Result<Box<dyn FrameStream>> {
    // Handshake-stage faults are enacted inside `enroll_with`, not by
    // wrapping the stream: the connection itself is an honest one.
    let Some(fault) = fault.filter(|f| !f.action.is_handshake()) else {
        return connect(endpoint);
    };
    if let Some(addr) = endpoint.strip_prefix("tcp://") {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        return Ok(Box::new(FaultyStream::new(stream, fault)));
    }
    #[cfg(unix)]
    if let Some(path) = endpoint.strip_prefix("uds:") {
        return Ok(Box::new(FaultyStream::new(UnixStream::connect(path)?, fault)));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("unrecognized endpoint '{endpoint}' (expected tcp://host:port or uds:/path)"),
    ))
}

/// [`connect_with_retry`]'s fault-injecting sibling (same backoff, same
/// transient-error policy).
pub fn connect_with_retry_faulty(
    endpoint: &str,
    deadline: Duration,
    fault: Option<FaultSpec>,
) -> io::Result<Box<dyn FrameStream>> {
    let start = std::time::Instant::now();
    let mut backoff = Backoff::for_dial(deadline);
    let transient = |kind: io::ErrorKind| {
        matches!(
            kind,
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::NotFound
        )
    };
    loop {
        match connect_faulty(endpoint, fault) {
            Ok(s) => return Ok(s),
            Err(e) if transient(e.kind()) => match backoff.next_delay(start.elapsed()) {
                Some(delay) => thread::sleep(delay),
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Enrollment handshake
// ---------------------------------------------------------------------------

/// `Tag::i` sentinel of the hello control frame (worker → master).
/// Distinct from the session sentinels (`RUN_BEGIN`, `RUN_END`), which
/// only ever travel *after* enrollment.
pub const HELLO: u32 = u32::MAX - 2;
/// `Tag::i` sentinel of the welcome control frame (master → worker).
pub const WELCOME: u32 = u32::MAX - 3;
/// `Tag::i` sentinel of the challenge control frame (master → worker):
/// the first frame on every new connection. `Tag::j` carries the
/// master's [`PROTOCOL_VERSION`], the payload its 16-byte challenge
/// nonce.
pub const CHALLENGE: u32 = u32::MAX - 4;
/// `Tag::i` sentinel of the rejection control frame (master → worker):
/// the handshake failed, `Tag::j` names why (one of the `REJECT_*`
/// codes), the payload is a human-readable reason. Sent best-effort
/// before the master drops the connection, so a rejected worker fails
/// with a diagnosis instead of a bare EOF.
pub const REJECT: u32 = u32::MAX - 5;
/// `Tag::j` value in a hello meaning "assign me any free worker slot".
pub const CLAIM_ANY: u32 = u32::MAX;

/// Version of the enrollment handshake this build speaks. A peer
/// presenting any other version — including a pre-versioning build,
/// whose hello has no version field at all — is turned away with a
/// [`REJECT_VERSION`] rejection instead of a decode error, so mixed
/// fleets degrade to a clean, diagnosable refusal.
///
/// v3 extended the frame header with the run-generation field (and made
/// the CRC32C trailer the default wire format): a v2 peer would misread
/// every data frame, so it must be refused at the door, not discovered
/// via corruption mid-run.
pub const PROTOCOL_VERSION: u32 = 3;

/// Reject code: protocol-version mismatch (or a first frame that is not
/// a hello at all — a peer not speaking this protocol).
pub const REJECT_VERSION: u32 = 1;
/// Reject code: the hello's HMAC does not verify — wrong or missing
/// fleet secret.
pub const REJECT_AUTH: u32 = 2;
/// Reject code: the hello presented a stale membership epoch — a
/// connection (or replay) from a previous fleet generation.
pub const REJECT_EPOCH: u32 = 3;
/// Reject code: the claimed worker slot is not the one the master is
/// enrolling.
pub const REJECT_SLOT: u32 = 4;
/// Reject code: the fingerprint does not match what the master expects
/// (a cross-wired loopback connect).
pub const REJECT_FINGERPRINT: u32 = 5;

/// Service id: the master serves matrix-product runs (the worker must run
/// the `mwp-core` Algorithm 2 program).
pub const SERVICE_MATRIX: u8 = 0;
/// Service id: the master serves LU-factorization runs.
pub const SERVICE_LU: u8 = 1;
/// Service id of sessions whose worker programs are supplied in-process
/// (loopback transport): the welcome's service byte is advisory only.
pub const SERVICE_INPROC: u8 = 255;

/// The worker's answer to the master's challenge: who it is and which
/// fleet generation it believes it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The worker slot this connection claims, or `None` to let the
    /// master assign the next free slot (out-of-process workers).
    pub claimed: Option<WorkerId>,
    /// The membership epoch the worker believes is current. `0` means
    /// "fresh connection, no prior generation" — always admissible. A
    /// non-zero epoch that is not the master's current one marks a
    /// stale or replayed connection from a previous fleet generation
    /// and is rejected at the door ([`REJECT_EPOCH`]).
    pub epoch: u64,
    /// The worker's handshake nonce: the master's welcome MAC covers it,
    /// so a recorded welcome cannot be replayed to a later enrollment.
    pub nonce: [u8; 16],
    /// Opaque fingerprint bytes: loopback workers send the platform
    /// fingerprint (and the master verifies it — a cross-wired connect
    /// must fail fast); remote workers send a self-description (binary
    /// version, compute kernel) the master records.
    pub fingerprint: Vec<u8>,
}

/// The master's reply: the connection's identity and link parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Welcome {
    /// The assigned worker slot.
    pub worker: WorkerId,
    /// Per-block link cost `c` of this worker's link.
    pub c: f64,
    /// Compute cost `w` per block update.
    pub w: f64,
    /// Memory capacity `m` in blocks (the worker program's invariant cap).
    pub m: u64,
    /// Wall seconds per model time unit (0 = unpaced), for symmetry with
    /// the master's own pacing — informational on the worker side, which
    /// never paces (the one-port model bills all transfers to the master).
    pub time_scale: f64,
    /// Which worker program the master expects ([`SERVICE_MATRIX`],
    /// [`SERVICE_LU`], or [`SERVICE_INPROC`]).
    pub service: u8,
    /// The fleet's membership epoch at enrollment. Bumped by the session
    /// on every `admit`/`prune_dead`, so it names the exact fleet
    /// generation this worker joined.
    pub epoch: u64,
}

/// How long each side of the enrollment handshake waits for the peer's
/// frame (override with `MWP_HANDSHAKE_TIMEOUT_MS`, mostly for tests). A
/// connection that goes silent mid-handshake is dropped after this —
/// never allowed to park an accept loop forever.
pub fn handshake_timeout() -> Duration {
    let ms = match std::env::var("MWP_HANDSHAKE_TIMEOUT_MS") {
        Ok(v) => parse_millis(&v)
            .unwrap_or_else(|e| panic!("MWP_HANDSHAKE_TIMEOUT_MS: {e}"))
            .unwrap_or(10_000),
        Err(_) => 10_000,
    };
    Duration::from_millis(ms)
}

/// Fixed-field length of a hello payload (layout unchanged since v2):
/// version (4) + epoch (8) + worker nonce (16) + MAC (32); fingerprint
/// bytes follow. A shorter payload can only come from a pre-v2 peer.
const HELLO_FIXED_LEN: usize = 4 + 8 + 16 + 32;
/// Byte offset of the MAC within a hello payload.
const HELLO_MAC_AT: usize = 4 + 8 + 16;
/// Exact length of a welcome payload (layout unchanged since v2): c, w,
/// m, time_scale (8 each) + service (1) + epoch (8) + MAC (32).
const WELCOME_WIRE_LEN: usize = 8 * 4 + 1 + 8 + 32;
/// Byte offset of the MAC within a welcome payload (everything before it
/// is the MAC'd fixed image).
const WELCOME_MAC_AT: usize = WELCOME_WIRE_LEN - 32;

/// The hello's authentication tag: an HMAC over the master's challenge
/// nonce and **every field the hello asserts** (version, claimed slot,
/// epoch, worker nonce, fingerprint), domain-separated from the welcome
/// MAC. Binding the challenge makes a recorded hello worthless against
/// any later connection.
fn hello_mac(
    secret: &[u8],
    challenge: &[u8; 16],
    claim_j: u32,
    epoch: u64,
    nonce: &[u8; 16],
    fingerprint: &[u8],
) -> [u8; 32] {
    auth::hmac_sha256(
        secret,
        &[
            b"mwp-hello-v2",
            challenge,
            &PROTOCOL_VERSION.to_le_bytes(),
            &claim_j.to_le_bytes(),
            &epoch.to_le_bytes(),
            nonce,
            fingerprint,
        ],
    )
}

/// The welcome's authentication tag: an HMAC over the worker's nonce,
/// the assigned slot, and the welcome's fixed fields — the worker's
/// proof that the welcoming master holds the fleet secret and that this
/// welcome answers *this* enrollment, not a recorded one.
fn welcome_mac(secret: &[u8], worker_nonce: &[u8; 16], worker_j: u32, fixed: &[u8]) -> [u8; 32] {
    auth::hmac_sha256(secret, &[b"mwp-welcome-v2", worker_nonce, &worker_j.to_le_bytes(), fixed])
}

/// Encode the master's opening challenge: protocol version in `Tag::j`,
/// the 16-byte challenge nonce as payload.
pub fn challenge_frame(nonce: &[u8; 16]) -> Frame {
    Frame::new(
        Tag { kind: FrameKind::Control, i: CHALLENGE, j: PROTOCOL_VERSION },
        Bytes::from(nonce.to_vec()),
    )
}

/// Decode the master's challenge and return its nonce. A version other
/// than [`PROTOCOL_VERSION`] is refused here, on the worker side, with
/// [`io::ErrorKind::Unsupported`] — the worker-facing half of version
/// negotiation (the master-facing half is [`master_read_hello`]).
pub fn parse_challenge(frame: &Frame) -> io::Result<[u8; 16]> {
    expect_sentinel(frame, CHALLENGE, "challenge")?;
    if frame.tag.j != PROTOCOL_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!(
                "master speaks enrollment protocol v{}, this build speaks v{PROTOCOL_VERSION}",
                frame.tag.j
            ),
        ));
    }
    frame.payload.as_ref().try_into().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("challenge nonce is {} bytes, expected 16", frame.payload.len()),
        )
    })
}

/// Encode a [`Hello`] answering `challenge`, MAC'd with `secret`.
pub fn hello_frame(hello: &Hello, secret: &[u8], challenge: &[u8; 16]) -> Frame {
    let j = hello.claimed.map_or(CLAIM_ANY, |id| id.index() as u32);
    let mac = hello_mac(secret, challenge, j, hello.epoch, &hello.nonce, &hello.fingerprint);
    let mut payload = Vec::with_capacity(HELLO_FIXED_LEN + hello.fingerprint.len());
    payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    payload.extend_from_slice(&hello.epoch.to_le_bytes());
    payload.extend_from_slice(&hello.nonce);
    payload.extend_from_slice(&mac);
    payload.extend_from_slice(&hello.fingerprint);
    Frame::new(Tag { kind: FrameKind::Control, i: HELLO, j }, Bytes::from(payload))
}

/// Decode a [`Hello`] (structure and version only — authenticity is
/// [`hello_authentic`]'s job, which needs the secret and the challenge).
/// A payload too short to be v2, or one carrying a different version
/// number, errors with [`io::ErrorKind::Unsupported`]: it is a
/// different-protocol peer, not stream corruption.
pub fn parse_hello(frame: &Frame) -> io::Result<Hello> {
    expect_sentinel(frame, HELLO, "hello")?;
    let p = &frame.payload;
    if p.len() < HELLO_FIXED_LEN {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!(
                "hello payload is {} bytes — shorter than a v{PROTOCOL_VERSION} hello \
                 (a pre-v{PROTOCOL_VERSION} peer?)",
                p.len()
            ),
        ));
    }
    let version = u32::from_le_bytes(p[0..4].try_into().expect("len checked"));
    if version != PROTOCOL_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("peer speaks enrollment protocol v{version}, this build speaks v{PROTOCOL_VERSION}"),
        ));
    }
    let claimed = match frame.tag.j {
        CLAIM_ANY => None,
        idx => Some(WorkerId(idx as usize)),
    };
    Ok(Hello {
        claimed,
        epoch: u64::from_le_bytes(p[4..12].try_into().expect("len checked")),
        nonce: p[12..28].try_into().expect("len checked"),
        fingerprint: p[HELLO_FIXED_LEN..].to_vec(),
    })
}

/// Verify a parsed hello's MAC against the challenge it answers.
/// Constant-time on the tag comparison.
pub fn hello_authentic(
    frame: &Frame,
    hello: &Hello,
    secret: &[u8],
    challenge: &[u8; 16],
) -> bool {
    let presented: [u8; 32] = match frame.payload.get(HELLO_MAC_AT..HELLO_FIXED_LEN) {
        Some(mac) => mac.try_into().expect("32-byte slice"),
        None => return false,
    };
    let expected =
        hello_mac(secret, challenge, frame.tag.j, hello.epoch, &hello.nonce, &hello.fingerprint);
    auth::macs_equal(&presented, &expected)
}

/// Encode a [`Welcome`] as its control frame, MAC'd over the enrolling
/// worker's hello nonce.
pub fn welcome_frame(welcome: &Welcome, secret: &[u8], worker_nonce: &[u8; 16]) -> Frame {
    let mut payload = Vec::with_capacity(WELCOME_WIRE_LEN);
    payload.extend_from_slice(&welcome.c.to_le_bytes());
    payload.extend_from_slice(&welcome.w.to_le_bytes());
    payload.extend_from_slice(&welcome.m.to_le_bytes());
    payload.extend_from_slice(&welcome.time_scale.to_le_bytes());
    payload.push(welcome.service);
    payload.extend_from_slice(&welcome.epoch.to_le_bytes());
    let j = welcome.worker.index() as u32;
    let mac = welcome_mac(secret, worker_nonce, j, &payload);
    payload.extend_from_slice(&mac);
    Frame::new(Tag { kind: FrameKind::Control, i: WELCOME, j }, Bytes::from(payload))
}

/// Decode and authenticate a [`Welcome`] frame: the MAC must verify
/// against this enrollment's own nonce, or the "master" does not hold
/// the fleet secret (or is replaying someone else's welcome) and the
/// worker refuses to serve it ([`io::ErrorKind::PermissionDenied`]).
pub fn parse_welcome(frame: &Frame, secret: &[u8], worker_nonce: &[u8; 16]) -> io::Result<Welcome> {
    expect_sentinel(frame, WELCOME, "welcome")?;
    let p = &frame.payload;
    if p.len() != WELCOME_WIRE_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("welcome payload is {} bytes, expected {WELCOME_WIRE_LEN}", p.len()),
        ));
    }
    let presented: [u8; 32] = p[WELCOME_MAC_AT..].try_into().expect("len checked");
    let expected = welcome_mac(secret, worker_nonce, frame.tag.j, &p[..WELCOME_MAC_AT]);
    if !auth::macs_equal(&presented, &expected) {
        return Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            "welcome MAC does not verify: the master does not hold this fleet's secret",
        ));
    }
    let f64_at = |o: usize| f64::from_le_bytes(p[o..o + 8].try_into().expect("len checked"));
    Ok(Welcome {
        worker: WorkerId(frame.tag.j as usize),
        c: f64_at(0),
        w: f64_at(8),
        m: u64::from_le_bytes(p[16..24].try_into().expect("len checked")),
        time_scale: f64_at(24),
        service: p[32],
        epoch: u64::from_le_bytes(p[33..41].try_into().expect("len checked")),
    })
}

/// Encode a handshake rejection: reason code in `Tag::j`, human-readable
/// detail as payload.
pub fn reject_frame(code: u32, reason: &str) -> Frame {
    Frame::new(
        Tag { kind: FrameKind::Control, i: REJECT, j: code },
        Bytes::from(reason.as_bytes().to_vec()),
    )
}

/// Is this frame a handshake rejection?
pub fn is_reject(frame: &Frame) -> bool {
    frame.tag.kind == FrameKind::Control && frame.tag.i == REJECT
}

/// Map a received [`REJECT`] frame to the error the worker surfaces:
/// version mismatches are [`io::ErrorKind::Unsupported`], failed
/// authentication and stale epochs are
/// [`io::ErrorKind::PermissionDenied`], slot/fingerprint disputes are
/// [`io::ErrorKind::InvalidData`]. All of them are **permanent** — the
/// retry loop in [`enroll_with_retry`] gives up on them immediately.
pub fn reject_error(frame: &Frame) -> io::Error {
    let reason = String::from_utf8_lossy(&frame.payload);
    let kind = match frame.tag.j {
        REJECT_VERSION => io::ErrorKind::Unsupported,
        REJECT_AUTH | REJECT_EPOCH => io::ErrorKind::PermissionDenied,
        _ => io::ErrorKind::InvalidData,
    };
    io::Error::new(kind, format!("master rejected enrollment: {reason}"))
}

/// Best-effort rejection: tell the peer why before dropping it. Failures
/// are ignored — the connection is being torn down either way.
pub fn send_reject(stream: &mut dyn FrameStream, code: u32, reason: &str) {
    let _ = stream.send_frame(&reject_frame(code, reason));
}

/// Require `frame` to be the `sentinel` control frame.
fn expect_sentinel(frame: &Frame, sentinel: u32, what: &str) -> io::Result<()> {
    if frame.tag.kind != FrameKind::Control || frame.tag.i != sentinel {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected {what} frame, got {:?} (tag.i = {})", frame.tag.kind, frame.tag.i),
        ));
    }
    Ok(())
}

/// A handshake frame must exist — EOF mid-handshake is an error.
pub(crate) fn expect_frame(frame: Option<Frame>, what: &str) -> io::Result<Frame> {
    frame.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, format!("peer closed before {what}"))
    })
}

/// Master side, step 1 of enrollment: put the fresh connection under the
/// [`handshake_timeout`] read deadline and send the protocol challenge.
/// Returns the challenge nonce the peer's hello must answer.
pub fn master_challenge(stream: &mut dyn FrameStream) -> io::Result<[u8; 16]> {
    stream.set_read_timeout(Some(handshake_timeout()))?;
    let nonce = auth::fresh_nonce();
    stream.send_frame(&challenge_frame(&nonce))?;
    Ok(nonce)
}

/// Master side, step 2 of enrollment: read and vet the peer's hello.
/// Every admission gate lives here — protocol structure and version,
/// the HMAC against `challenge` under `secret`, and the membership
/// `epoch` (a hello may present epoch 0, "fresh connection", or the
/// current epoch; anything else is a stale generation). A peer failing
/// any gate is told why with a best-effort [`REJECT`] frame and the
/// error is returned; the caller drops the connection and keeps
/// accepting — one bad dialer must never wedge the fleet's front door.
pub fn master_read_hello(
    stream: &mut dyn FrameStream,
    secret: &[u8],
    challenge: &[u8; 16],
    epoch: u64,
) -> io::Result<Hello> {
    let frame = expect_frame(stream.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN)?, "hello")?;
    let hello = match parse_hello(&frame) {
        Ok(h) => h,
        Err(e) => {
            // Wrong version *or* not a hello at all: either way the peer
            // does not speak this protocol revision. Degrade to a clean,
            // named rejection — never a decode panic.
            send_reject(stream, REJECT_VERSION, &format!("unsupported handshake: {e}"));
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("peer does not speak this handshake: {e}"),
            ));
        }
    };
    if !hello_authentic(&frame, &hello, secret, challenge) {
        send_reject(stream, REJECT_AUTH, "hello MAC does not verify (wrong or missing fleet secret)");
        return Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            format!("unauthenticated hello from {}", stream.peer()),
        ));
    }
    if hello.epoch != 0 && hello.epoch != epoch {
        send_reject(
            stream,
            REJECT_EPOCH,
            &format!("membership epoch {} is stale (fleet is at {epoch})", hello.epoch),
        );
        return Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            format!("stale epoch {} from {} (fleet is at {epoch})", hello.epoch, stream.peer()),
        ));
    }
    Ok(hello)
}

/// Worker-process (or loopback worker-thread) enrollment with the
/// ambient configuration: the fleet secret from `MWP_FLEET_SECRET`, a
/// fresh (epoch-0) membership claim, and no fault injection. See
/// [`enroll_with`].
pub fn enroll(
    stream: Box<dyn FrameStream>,
    claim: Option<WorkerId>,
    fingerprint: &[u8],
) -> io::Result<(WorkerEndpoint, Welcome)> {
    enroll_with(stream, claim, fingerprint, &auth::fleet_secret(), 0, None)
}

/// Worker-process enrollment, fully parameterized: await the master's
/// challenge, answer with a MAC'd hello — claiming `claim` or asking for
/// any slot, presenting `epoch` as the believed fleet generation — and
/// build a socket-backed [`WorkerEndpoint`] from the returned welcome
/// (whose own MAC is verified: mutual authentication). The endpoint
/// drives the exact same worker programs as the channel transport; see
/// [`crate::session::serve_worker`] for the outer loop.
///
/// The handshake runs on the unsplit stream under the
/// [`handshake_timeout`] deadline and the [`MAX_HANDSHAKE_WIRE_LEN`]
/// budget — a silent or hostile "master" cannot park this worker forever
/// or feed it a giant allocation. The deadline is swapped for the
/// liveness deadline before the stream splits into the endpoint's halves
/// (enrolled workers park indefinitely between runs by design; the
/// master's idle-link heartbeats keep the socket warm).
///
/// A handshake-stage [`FaultSpec`] (`badhello`/`badauth`) is enacted
/// here: the hello goes out as an unrelated frame, or with a corrupted
/// MAC — chaos tests use this to exercise the master's rejection path
/// with real processes. Data-plane faults are ignored here (they wrap
/// the stream in [`connect_faulty`] instead).
pub fn enroll_with(
    mut stream: Box<dyn FrameStream>,
    claim: Option<WorkerId>,
    fingerprint: &[u8],
    secret: &[u8],
    epoch: u64,
    fault: Option<FaultSpec>,
) -> io::Result<(WorkerEndpoint, Welcome)> {
    stream.set_read_timeout(Some(handshake_timeout()))?;
    let challenge =
        parse_challenge(&expect_frame(stream.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN)?, "challenge")?)?;
    let hello =
        Hello { claimed: claim, epoch, nonce: auth::fresh_nonce(), fingerprint: fingerprint.to_vec() };
    let outbound = match fault.map(|f| f.action) {
        // A peer that does not speak the protocol: any valid frame that
        // is not a hello.
        Some(FaultAction::BadHello) => Frame::shutdown(),
        // A peer without the secret: a structurally perfect hello whose
        // MAC is off by one bit.
        Some(FaultAction::BadAuth) => {
            let good = hello_frame(&hello, secret, &challenge);
            let mut payload = good.payload.to_vec();
            payload[HELLO_MAC_AT] ^= 0x01;
            Frame::new(good.tag, Bytes::from(payload))
        }
        _ => hello_frame(&hello, secret, &challenge),
    };
    stream.send_frame(&outbound)?;
    let reply = expect_frame(stream.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN)?, "welcome")?;
    if is_reject(&reply) {
        return Err(reject_error(&reply));
    }
    let welcome = parse_welcome(&reply, secret, &hello.nonce)?;
    // Enrolled: swap the handshake deadline for the liveness deadline.
    // The master's idle-link heartbeats keep arriving even while this
    // worker is parked between runs, so only a dead or wedged master
    // trips it; with liveness off the link blocks indefinitely, as the
    // session protocol originally required.
    stream.set_read_timeout(liveness().map(|(_, deadline)| deadline))?;
    if let Some(claimed) = claim {
        if welcome.worker != claimed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("claimed slot {} but was welcomed as {}", claimed.index(), welcome.worker.index()),
            ));
        }
    }
    let (reader, writer) = stream.split()?;
    Ok((WorkerEndpoint::remote(welcome.worker, reader, writer), welcome))
}

/// Dial + enroll with retries: the worker binary's whole connection
/// story in one call. **Transient** failures — the master's listener not
/// up yet, a connection refused/reset/aborted mid-churn, a not-yet-bound
/// Unix socket path, a peer that closed before answering — retry on the
/// jittered exponential [`Backoff`] until `deadline` elapses. Everything
/// else fails **fast**: an authentication rejection, a version mismatch,
/// or a slot dispute will not change on retry, and hammering the
/// master's accept loop with doomed handshakes would only hide the real
/// error behind a timeout.
pub fn enroll_with_retry(
    endpoint: &str,
    deadline: Duration,
    claim: Option<WorkerId>,
    fingerprint: &[u8],
) -> io::Result<(WorkerEndpoint, Welcome)> {
    enroll_with_retry_faulty(endpoint, deadline, claim, fingerprint, None)
}

/// [`enroll_with_retry`] with fault injection: data-plane faults wrap
/// the stream ([`connect_faulty`]), handshake faults fire inside
/// [`enroll_with`].
pub fn enroll_with_retry_faulty(
    endpoint: &str,
    deadline: Duration,
    claim: Option<WorkerId>,
    fingerprint: &[u8],
    fault: Option<FaultSpec>,
) -> io::Result<(WorkerEndpoint, Welcome)> {
    let secret = auth::fleet_secret();
    let start = std::time::Instant::now();
    let mut backoff = Backoff::for_dial(deadline);
    let transient = |kind: io::ErrorKind| {
        matches!(
            kind,
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::NotFound
                | io::ErrorKind::UnexpectedEof
        )
    };
    loop {
        let attempt = connect_faulty(endpoint, fault)
            .and_then(|stream| enroll_with(stream, claim, fingerprint, &secret, 0, fault));
        match attempt {
            Ok(enrolled) => return Ok(enrolled),
            Err(e) if transient(e.kind()) => match backoff.next_delay(start.elapsed()) {
                Some(delay) => thread::sleep(delay),
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// RemoteLink: the master-facing half of a socket link
// ---------------------------------------------------------------------------

/// The master side of one socket-backed link.
///
/// Internally this is a channel-backed [`MasterSide`] — the very struct
/// the channel transport hands to [`crate::MasterEndpoint`], with pacing,
/// one-port metering, and statistics untouched — whose worker half is
/// bridged to the socket by two pump threads:
///
/// * the **out pump** drains master→worker frames from the channel onto
///   the socket; it exits after forwarding a [`Frame::shutdown`] (or,
///   when the master endpoint drops without one, after sending a
///   best-effort shutdown of its own), so the remote worker always
///   observes an orderly end-of-session;
/// * the **in pump** reads worker→master frames off the socket into the
///   channel and exits on EOF or a transport error — at which point a
///   master blocked in `recv` observes the same "worker died" channel
///   error the in-process transport produces.
///
/// Pump threads never meter or pace: the master pays for a transfer when
/// the frame crosses its `MasterSide`, exactly as with channel links, so
/// the one-port model's accounting is transport-independent.
pub struct RemoteLink {
    side: MasterSide,
    pumps: [JoinHandle<()>; 2],
}

impl RemoteLink {
    /// Bridge split stream halves into a channel-backed link for worker
    /// `id` with per-block cost `c` and the network's pacing.
    pub fn attach(
        reader: Box<dyn FrameRead>,
        writer: Box<dyn FrameWrite>,
        c: f64,
        pacing: Pacing,
        id: WorkerId,
    ) -> RemoteLink {
        let (master_side, worker_side) = Link::new(c, pacing).split();
        let (to_worker_rx, to_master_tx) = worker_side.into_channels();
        let heartbeat = liveness().map(|(interval, _)| interval);
        let mut writer = writer;
        let out_pump = thread::Builder::new()
            .name(format!("mwp-pump-out-{}", id.index()))
            .spawn(move || {
                loop {
                    let frame = match heartbeat {
                        // Idle-link-only heartbeats: a probe goes out only
                        // when a full heartbeat period passed with nothing
                        // to forward, so a busy link pays zero overhead.
                        Some(interval) => match to_worker_rx.recv_timeout(interval) {
                            Ok(f) => f,
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                if writer.send_frame(&Frame::heartbeat()).is_err() {
                                    break; // worker gone; in-pump reports it
                                }
                                continue;
                            }
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                                // Master endpoint dropped without a shutdown
                                // frame: synthesize one so the remote worker
                                // still sees an orderly close.
                                let _ = writer.send_frame(&Frame::shutdown());
                                break;
                            }
                        },
                        None => match to_worker_rx.recv() {
                            Ok(f) => f,
                            Err(_) => {
                                let _ = writer.send_frame(&Frame::shutdown());
                                break;
                            }
                        },
                    };
                    let is_shutdown = frame.tag.kind == FrameKind::Shutdown;
                    if writer.send_frame(&frame).is_err() || is_shutdown {
                        break;
                    }
                }
            })
            .expect("spawn transport out-pump");
        let mut reader = reader;
        let death_flag = master_side.death_flag();
        let in_pump = thread::Builder::new()
            .name(format!("mwp-pump-in-{}", id.index()))
            .spawn(move || {
                // The socket carries the liveness read deadline (set before
                // the split), so a worker silent past `MWP_DEADLINE_MS` —
                // no data, no heartbeats — surfaces here as a timed-out
                // read. Any exit marks the link dead and drops the channel
                // sender, which a master blocked in `recv` observes as the
                // same "worker died" error the in-process transport
                // produces. Worker heartbeats are swallowed here; they
                // exist only to feed the socket's deadline.
                loop {
                    match reader.recv_frame() {
                        Ok(Some(f)) if f.tag.kind == FrameKind::Heartbeat => continue,
                        Ok(Some(f)) => {
                            if to_master_tx.send(f).is_err() {
                                break; // master endpoint gone
                            }
                        }
                        Ok(None) | Err(_) => break,
                    }
                }
                death_flag.store(true, std::sync::atomic::Ordering::Release);
            })
            .expect("spawn transport in-pump");
        RemoteLink { side: master_side, pumps: [out_pump, in_pump] }
    }

    /// Disassemble into the endpoint-facing side and the pump handles
    /// (joined by the owning session at teardown).
    pub(crate) fn into_parts(self) -> (MasterSide, [JoinHandle<()>; 2]) {
        (self.side, self.pumps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, FrameKind, Tag};
    use bytes::Bytes;

    fn frame(kind: FrameKind, i: usize, j: usize, payload: &[u8]) -> Frame {
        Frame::new(Tag::new(kind, i, j), Bytes::from(payload.to_vec()))
    }

    /// A reader that hands out its bytes at most `chunk` at a time —
    /// simulating TCP split reads, where one frame arrives across many
    /// `read` calls.
    struct SplitReader {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for SplitReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Raw (checksum-less) wire image of `frames` — the `MWP_CHECKSUM=off`
    /// format. Checksum-format tests build their wire with
    /// [`checked_wire_of`].
    fn wire_of(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            write_frame_to(&mut out, f, false).unwrap();
        }
        out
    }

    /// Wire image with the CRC32C trailer (the default format).
    fn checked_wire_of(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            write_frame_to(&mut out, f, true).unwrap();
        }
        out
    }

    #[test]
    fn framing_roundtrip_preserves_frames() {
        let frames = [
            frame(FrameKind::BlockB, 3, 17, &[1, 2, 3, 4]),
            frame(FrameKind::Control, 0, 0, &[]),
            Frame::shutdown(),
        ];
        let wire = wire_of(&frames);
        let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
        let pool = BufferPool::new();
        for f in &frames {
            assert_eq!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, false).unwrap().as_ref(), Some(f));
        }
        assert!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, false).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn checksummed_framing_roundtrip_preserves_frames_and_run_tags() {
        let frames = [
            Frame::new_in_run(Tag::new(FrameKind::BlockB, 3, 17), 9, Bytes::from(vec![1, 2, 3, 4])),
            frame(FrameKind::Control, 0, 0, &[]),
            Frame::shutdown(),
        ];
        let wire = checked_wire_of(&frames);
        let mut r = SplitReader { data: wire, pos: 0, chunk: 1 };
        let pool = BufferPool::new();
        for f in &frames {
            assert_eq!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, true).unwrap().as_ref(), Some(f));
        }
        assert!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, true).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn any_flipped_bit_fails_the_checksum() {
        let f = Frame::new_in_run(Tag::new(FrameKind::CResult, 2, 5), 3, Bytes::from(vec![7u8; 48]));
        let clean = checked_wire_of(std::slice::from_ref(&f));
        // Flip one bit at every position past the length prefix —
        // header, payload, and the trailer itself: every single one
        // must be detected, never delivered as a (wrong) frame.
        for at in 4..clean.len() {
            let mut wire = clean.clone();
            wire[at] ^= 0x10;
            let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
            let err = read_frame_from(&mut r, &BufferPool::new(), MAX_WIRE_LEN, true).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at byte {at}");
        }
    }

    #[test]
    fn split_reads_reassemble_whole_frames() {
        // One byte per read() call: the framing layer must reassemble.
        let frames = [frame(FrameKind::BlockA, 9, 9, &[7u8; 100]), frame(FrameKind::CResult, 1, 2, &[8u8; 33])];
        let wire = wire_of(&frames);
        let mut r = SplitReader { data: wire, pos: 0, chunk: 1 };
        let pool = BufferPool::new();
        for f in &frames {
            assert_eq!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, false).unwrap().as_ref(), Some(f));
        }
        assert!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, false).unwrap().is_none());
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_hang() {
        let wire = wire_of(&[frame(FrameKind::BlockB, 0, 0, &[5u8; 64])]);
        let pool = BufferPool::new();
        // Cut at every interesting boundary: mid-prefix, mid-header
        // (both before and inside the run-generation field), and
        // mid-payload.
        for cut in [1, 3, 4 + 4, 4 + 10, 4 + 12, wire.len() - 1] {
            let mut r = SplitReader { data: wire[..cut].to_vec(), pos: 0, chunk: usize::MAX };
            let err = read_frame_from(&mut r, &pool, MAX_WIRE_LEN, false).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // Same boundaries under the checksum format, plus a cut inside
        // the CRC trailer itself.
        let wire = checked_wire_of(&[frame(FrameKind::BlockB, 0, 0, &[5u8; 64])]);
        for cut in [1, 3, 4 + 4, 4 + 10, 4 + 12, wire.len() - 3, wire.len() - 1] {
            let mut r = SplitReader { data: wire[..cut].to_vec(), pos: 0, chunk: usize::MAX };
            let err = read_frame_from(&mut r, &pool, MAX_WIRE_LEN, true).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "checksummed cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        // 3 GiB length prefix: must be InvalidData, not an allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(3u32 << 30).to_le_bytes());
        wire.extend_from_slice(&[0u8; 32]);
        let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
        let err = read_frame_from(&mut r, &BufferPool::new(), MAX_WIRE_LEN, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "got: {err}");
    }

    #[test]
    fn undersized_length_prefix_is_rejected() {
        // A prefix shorter than the 13-byte header can never frame a
        // valid message; under the checksum format the floor is 17
        // (header + CRC trailer).
        for len in 0u32..13 {
            let mut wire = Vec::new();
            wire.extend_from_slice(&len.to_le_bytes());
            wire.extend_from_slice(&vec![0u8; len as usize]);
            let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
            let err = read_frame_from(&mut r, &BufferPool::new(), MAX_WIRE_LEN, false).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {len}");
        }
        for len in 0u32..17 {
            let mut wire = Vec::new();
            wire.extend_from_slice(&len.to_le_bytes());
            wire.extend_from_slice(&vec![0u8; len as usize]);
            let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
            let err = read_frame_from(&mut r, &BufferPool::new(), MAX_WIRE_LEN, true).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "checksummed len {len}");
        }
    }

    #[test]
    fn garbage_kind_tag_is_rejected() {
        let mut wire = wire_of(&[frame(FrameKind::BlockA, 1, 1, &[1, 2, 3])]);
        wire[4] = 200; // corrupt the kind byte inside the framed image
        let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
        let err = read_frame_from(&mut r, &BufferPool::new(), MAX_WIRE_LEN, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn checksum_parser_is_strict() {
        assert_eq!(parse_checksum(""), Ok(true));
        assert_eq!(parse_checksum("  "), Ok(true));
        assert_eq!(parse_checksum("on"), Ok(true));
        assert_eq!(parse_checksum("off"), Ok(false));
        for bad in ["ON", "true", "1", "0", "yes", "crc32c"] {
            let err = parse_checksum(bad).unwrap_err();
            assert!(err.contains("on"), "'{bad}' error must name the valid values: {err}");
        }
    }

    #[test]
    fn received_payloads_reuse_pooled_buffers() {
        let wire = wire_of(&[frame(FrameKind::BlockB, 0, 0, &[9u8; 256])]);
        let pool = BufferPool::new();
        let mut r = SplitReader { data: wire.clone(), pos: 0, chunk: usize::MAX };
        let f1 = read_frame_from(&mut r, &pool, MAX_WIRE_LEN, false).unwrap().unwrap();
        let first_ptr = f1.payload.as_ptr();
        drop(f1); // last view: the buffer returns to the pool
        assert_eq!(pool.idle_buffers(), 1);
        let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
        let f2 = read_frame_from(&mut r, &pool, MAX_WIRE_LEN, false).unwrap().unwrap();
        // Second receive lands in the recycled storage (same backing
        // buffer, so same payload offset within it).
        assert_eq!(f2.payload.as_ptr(), first_ptr);
    }

    #[test]
    fn hello_welcome_roundtrip() {
        let secret = b"roundtrip-secret";
        let challenge = auth::fresh_nonce();
        let h1 = Hello {
            claimed: Some(WorkerId(3)),
            epoch: 7,
            nonce: auth::fresh_nonce(),
            fingerprint: b"fp".to_vec(),
        };
        let f1 = hello_frame(&h1, secret, &challenge);
        let parsed = parse_hello(&f1).unwrap();
        assert_eq!(parsed, h1);
        assert!(hello_authentic(&f1, &parsed, secret, &challenge));
        let h2 = Hello { claimed: None, epoch: 0, nonce: auth::fresh_nonce(), fingerprint: vec![] };
        let f2 = hello_frame(&h2, secret, &challenge);
        let parsed2 = parse_hello(&f2).unwrap();
        assert_eq!(parsed2.claimed, None);
        assert!(hello_authentic(&f2, &parsed2, secret, &challenge));
        let welcome = Welcome {
            worker: WorkerId(2),
            c: 4.0,
            w: 1.5,
            m: 60,
            time_scale: 0.25,
            service: SERVICE_LU,
            epoch: 7,
        };
        let wf = welcome_frame(&welcome, secret, &h1.nonce);
        let back = parse_welcome(&wf, secret, &h1.nonce).unwrap();
        assert_eq!(back, welcome);
    }

    #[test]
    fn handshake_rejects_wrong_frame() {
        assert!(parse_hello(&Frame::shutdown()).is_err());
        assert!(parse_challenge(&Frame::shutdown()).is_err());
    }

    #[test]
    fn challenge_roundtrip_and_version_gate() {
        let nonce = auth::fresh_nonce();
        assert_eq!(parse_challenge(&challenge_frame(&nonce)).unwrap(), nonce);
        // A master speaking any other protocol version is refused with
        // Unsupported — a clean degrade, not a decode panic.
        let mut alien = challenge_frame(&nonce);
        alien.tag.j = PROTOCOL_VERSION + 1;
        assert_eq!(parse_challenge(&alien).unwrap_err().kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn hello_from_another_protocol_version_is_unsupported_not_corrupt() {
        let secret = b"s";
        let challenge = auth::fresh_nonce();
        let hello =
            Hello { claimed: None, epoch: 0, nonce: auth::fresh_nonce(), fingerprint: vec![] };
        // Version field rewritten: parse must classify it as a foreign
        // protocol revision.
        let good = hello_frame(&hello, secret, &challenge);
        let mut payload = good.payload.to_vec();
        payload[0..4].copy_from_slice(&1u32.to_le_bytes());
        let v1 = Frame::new(good.tag, Bytes::from(payload));
        assert_eq!(parse_hello(&v1).unwrap_err().kind(), io::ErrorKind::Unsupported);
        // A pre-versioning hello (short payload — the v1 wire format was
        // just fingerprint bytes) classifies the same way.
        let legacy = Frame::new(
            Tag { kind: FrameKind::Control, i: HELLO, j: CLAIM_ANY },
            Bytes::from(b"fp".to_vec()),
        );
        assert_eq!(parse_hello(&legacy).unwrap_err().kind(), io::ErrorKind::Unsupported);
    }

    /// A peer from the previous protocol revision — structurally valid
    /// v2 hello, version field and all — must be turned away with the
    /// coded [`REJECT_VERSION`], not a decode error: a v2 build misreads
    /// every v3 data frame, so the door is where it has to stop.
    #[test]
    fn previous_version_peer_is_rejected_with_a_version_code() {
        let secret = b"version-gate-secret";
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let master = thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let err = master_challenge(conn.as_mut())
                .and_then(|ch| master_read_hello(conn.as_mut(), secret, &ch, 1).map(|_| ()))
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        });
        let mut conn = connect_with_retry(&endpoint, Duration::from_secs(5)).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let challenge =
            parse_challenge(&expect_frame(conn.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN).unwrap(), "challenge").unwrap())
                .unwrap();
        let hello = Hello { claimed: None, epoch: 0, nonce: auth::fresh_nonce(), fingerprint: vec![] };
        let good = hello_frame(&hello, secret, &challenge);
        let mut payload = good.payload.to_vec();
        payload[0..4].copy_from_slice(&(PROTOCOL_VERSION - 1).to_le_bytes());
        conn.send_frame(&Frame::new(good.tag, Bytes::from(payload))).unwrap();
        let reply = expect_frame(conn.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN).unwrap(), "reject").unwrap();
        assert!(is_reject(&reply), "expected a reject frame, got {:?}", reply.tag);
        assert_eq!(reply.tag.j, REJECT_VERSION, "the rejection must carry the version code");
        assert_eq!(reject_error(&reply).kind(), io::ErrorKind::Unsupported);
        master.join().unwrap();
    }

    #[test]
    fn wrong_secret_fails_both_mac_directions() {
        let challenge = auth::fresh_nonce();
        let hello = Hello {
            claimed: Some(WorkerId(0)),
            epoch: 0,
            nonce: auth::fresh_nonce(),
            fingerprint: b"x".to_vec(),
        };
        let f = hello_frame(&hello, b"worker-secret", &challenge);
        let parsed = parse_hello(&f).unwrap();
        assert!(!hello_authentic(&f, &parsed, b"master-secret", &challenge));
        // And a tampered field breaks the MAC even under the right secret.
        let mut tampered = f.payload.to_vec();
        *tampered.last_mut().unwrap() ^= 1; // flip a fingerprint bit
        let tf = Frame::new(f.tag, Bytes::from(tampered));
        let tp = parse_hello(&tf).unwrap();
        assert!(!hello_authentic(&tf, &tp, b"worker-secret", &challenge));
        let welcome = Welcome {
            worker: WorkerId(0),
            c: 1.0,
            w: 1.0,
            m: 10,
            time_scale: 0.0,
            service: SERVICE_MATRIX,
            epoch: 1,
        };
        let wf = welcome_frame(&welcome, b"master-secret", &hello.nonce);
        let err = parse_welcome(&wf, b"worker-secret", &hello.nonce).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        // Replaying a welcome MAC'd for another enrollment's nonce fails.
        let other_nonce = auth::fresh_nonce();
        let err = parse_welcome(&wf, b"master-secret", &other_nonce).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn reject_frames_map_to_the_right_error_kinds() {
        for (code, kind) in [
            (REJECT_VERSION, io::ErrorKind::Unsupported),
            (REJECT_AUTH, io::ErrorKind::PermissionDenied),
            (REJECT_EPOCH, io::ErrorKind::PermissionDenied),
            (REJECT_SLOT, io::ErrorKind::InvalidData),
            (REJECT_FINGERPRINT, io::ErrorKind::InvalidData),
        ] {
            let f = reject_frame(code, "nope");
            assert!(is_reject(&f));
            let e = reject_error(&f);
            assert_eq!(e.kind(), kind, "code {code}");
            assert!(e.to_string().contains("nope"));
        }
    }

    /// The full master/worker handshake over a real socket, plus every
    /// rejection path — and the master keeps accepting after each one.
    #[test]
    fn enrollment_round_rejects_impostors_and_admits_the_fleet() {
        let secret = b"fleet-secret";
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let master = thread::spawn(move || {
            let mut outcomes = Vec::new();
            // Serve four dialers; only the last is legitimate.
            for _ in 0..4 {
                let mut conn = listener.accept().unwrap();
                let outcome = master_challenge(conn.as_mut())
                    .and_then(|ch| master_read_hello(conn.as_mut(), secret, &ch, 5))
                    .map(|hello| {
                        let welcome = Welcome {
                            worker: WorkerId(0),
                            c: 2.0,
                            w: 1.0,
                            m: 40,
                            time_scale: 0.0,
                            service: SERVICE_MATRIX,
                            epoch: 5,
                        };
                        conn.send_frame(&welcome_frame(&welcome, secret, &hello.nonce)).unwrap();
                    });
                outcomes.push(outcome.map_err(|e| e.kind()));
            }
            outcomes
        });
        let dial = || connect_with_retry(&endpoint, Duration::from_secs(5)).unwrap();
        // 1: wrong secret.
        let err = enroll_with(dial(), None, b"", b"not-the-secret", 0, None)
            .err()
            .expect("wrong secret must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        // 2: stale epoch.
        let err =
            enroll_with(dial(), None, b"", secret, 4, None).err().expect("stale epoch rejected");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert!(err.to_string().contains("stale"), "got: {err}");
        // 3: does not even speak the protocol (badhello fault).
        let fault = Some(FaultSpec { action: FaultAction::BadHello, after: 0 });
        let err =
            enroll_with(dial(), None, b"", secret, 0, fault).err().expect("bad hello rejected");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        // 4: the real fleet member — current epoch, right secret.
        let (ep, welcome) = enroll_with(dial(), None, b"fp", secret, 5, None).unwrap();
        assert_eq!(welcome.epoch, 5);
        assert_eq!(welcome.worker, WorkerId(0));
        drop(ep);
        let outcomes = master.join().unwrap();
        assert_eq!(outcomes[0], Err(io::ErrorKind::PermissionDenied));
        assert_eq!(outcomes[1], Err(io::ErrorKind::PermissionDenied));
        assert_eq!(outcomes[2], Err(io::ErrorKind::Unsupported));
        assert!(outcomes[3].is_ok(), "the legitimate worker enrolls after three rejections");
    }

    /// A version rejection must fail fast — not burn the whole dial
    /// deadline in backoff like a refused connection does.
    #[test]
    fn enroll_with_retry_fails_fast_on_rejection() {
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let master = thread::spawn(move || {
            // A master from a different protocol era: its challenge
            // carries a version this build does not speak.
            let mut conn = listener.accept().unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut alien = challenge_frame(&auth::fresh_nonce());
            alien.tag.j = PROTOCOL_VERSION + 1;
            conn.send_frame(&alien).unwrap();
            // Hold the connection open until the worker walks away.
            let _ = conn.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN);
        });
        let t0 = std::time::Instant::now();
        let err = enroll_with_retry(&endpoint, Duration::from_secs(30), None, b"")
            .err()
            .expect("version mismatch must be an error");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "a permanent rejection must not be retried until the 30s deadline"
        );
        master.join().unwrap();
    }

    #[test]
    fn bind_spec_parser_is_strict() {
        assert_eq!(parse_bind_spec(""), Ok(None));
        assert_eq!(parse_bind_spec("  "), Ok(None));
        assert_eq!(
            parse_bind_spec("tcp://0.0.0.0:4455"),
            Ok(Some("tcp://0.0.0.0:4455".to_string()))
        );
        assert_eq!(parse_bind_spec("uds:/tmp/mwp.sock"), Ok(Some("uds:/tmp/mwp.sock".to_string())));
        for bad in ["0.0.0.0:4455", "tcp://", "uds:", "http://x", "loopback"] {
            let err = parse_bind_spec(bad).unwrap_err();
            assert!(err.contains("tcp://"), "'{bad}' error must name the valid forms: {err}");
        }
    }

    #[test]
    fn bind_env_honors_address_and_rejects_scheme_mismatch() {
        // Env staging is safe here: MWP_BIND is read only by this call.
        std::env::set_var("MWP_BIND", "tcp://127.0.0.1:0");
        let listener = TransportListener::bind_env(TransportMode::Tcp).unwrap();
        assert!(listener.endpoint().starts_with("tcp://127.0.0.1:"));
        let err = TransportListener::bind_env(TransportMode::Uds)
            .err()
            .expect("tcp bind spec under uds transport must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "tcp bind under uds transport");
        std::env::remove_var("MWP_BIND");
        // Unset: plain loopback default.
        let listener = TransportListener::bind_env(TransportMode::Tcp).unwrap();
        assert!(listener.endpoint().starts_with("tcp://127.0.0.1:"));
    }

    #[test]
    fn transport_mode_parser_is_strict() {
        assert_eq!(parse_transport_mode(""), Ok(TransportMode::Channel));
        assert_eq!(parse_transport_mode("channel"), Ok(TransportMode::Channel));
        assert_eq!(parse_transport_mode("tcp"), Ok(TransportMode::Tcp));
        assert_eq!(parse_transport_mode("uds"), Ok(TransportMode::Uds));
        let err = parse_transport_mode("pigeon").unwrap_err();
        for name in TransportMode::NAMES {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
    }

    #[test]
    fn tcp_stream_carries_frames_both_ways() {
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let h = thread::spawn(move || {
            let stream = connect(&endpoint).unwrap();
            let (mut r, mut w) = stream.split().unwrap();
            // Echo one frame back with a changed tag.
            let f = r.recv_frame().unwrap().unwrap();
            w.send_frame(&Frame::new(Tag::new(FrameKind::CResult, 7, 7), f.payload)).unwrap();
        });
        let conn = listener.accept().unwrap();
        let (mut r, mut w) = conn.split().unwrap();
        w.send_frame(&frame(FrameKind::BlockA, 1, 2, &[1, 2, 3])).unwrap();
        let back = r.recv_frame().unwrap().unwrap();
        assert_eq!(back.tag, Tag::new(FrameKind::CResult, 7, 7));
        assert_eq!(&back.payload[..], &[1, 2, 3]);
        assert!(r.recv_frame().unwrap().is_none(), "peer closed cleanly");
        h.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn uds_stream_carries_frames_and_unlinks_its_path() {
        let listener = TransportListener::bind(TransportMode::Uds).unwrap();
        let endpoint = listener.endpoint();
        let path = match &listener {
            TransportListener::Uds { path, .. } => path.clone(),
            _ => unreachable!(),
        };
        let h = thread::spawn(move || {
            let stream = connect(&endpoint).unwrap();
            let (mut r, mut w) = stream.split().unwrap();
            let f = r.recv_frame().unwrap().unwrap();
            w.send_frame(&f).unwrap();
        });
        let conn = listener.accept().unwrap();
        let (mut r, mut w) = conn.split().unwrap();
        let sent = frame(FrameKind::LuPanel, 3, 0, &[9u8; 40]);
        w.send_frame(&sent).unwrap();
        assert_eq!(r.recv_frame().unwrap().unwrap(), sent);
        h.join().unwrap();
        assert!(path.exists());
        drop((r, w, listener));
        assert!(!path.exists(), "socket path must be unlinked on drop");
    }

    #[test]
    fn remote_link_bridges_a_socket_to_master_side_semantics() {
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        // "Remote worker": echo frames until shutdown.
        let h = thread::spawn(move || {
            let stream = connect(&endpoint).unwrap();
            let (mut r, mut w) = stream.split().unwrap();
            while let Some(f) = r.recv_frame().unwrap() {
                if f.tag.kind == FrameKind::Shutdown {
                    break;
                }
                let _ = w.send_frame(&Frame::new(Tag::new(FrameKind::CResult, f.tag.i as usize, 0), f.payload));
            }
        });
        let conn = listener.accept().unwrap();
        let (reader, writer) = conn.split().unwrap();
        let link = RemoteLink::attach(reader, writer, 2.0, Pacing::OFF, WorkerId(0));
        let (side, pumps) = link.into_parts();
        let cost = side.send(frame(FrameKind::BlockA, 5, 0, &[1u8; 16]), 2);
        assert_eq!(cost, 4.0, "pacing cost is metered on the master side");
        let (back, _) = side.recv(2).unwrap();
        assert_eq!(back.tag.i, 5);
        let snap = side.stats().snapshot();
        assert_eq!(snap.blocks_to_worker, 2);
        assert_eq!(snap.blocks_to_master, 2);
        side.send(Frame::shutdown(), 0);
        for p in pumps {
            p.join().unwrap();
        }
        h.join().unwrap();
    }

    #[test]
    fn millis_parser_is_strict() {
        assert_eq!(parse_millis(""), Ok(None));
        assert_eq!(parse_millis("  "), Ok(None));
        assert_eq!(parse_millis("0"), Ok(Some(0)));
        assert_eq!(parse_millis("2500"), Ok(Some(2500)));
        assert_eq!(parse_millis(" 75 "), Ok(Some(75)));
        for bad in ["1.5", "-1", "1s", "fast", "1_000"] {
            assert!(parse_millis(bad).is_err(), "'{bad}' must be rejected, not defaulted");
        }
    }

    #[test]
    fn fault_spec_parser_is_strict() {
        assert_eq!(parse_fault_spec(""), Ok(None));
        assert_eq!(
            parse_fault_spec("kill:3"),
            Ok(Some(FaultSpec { action: FaultAction::Kill, after: 3 }))
        );
        assert_eq!(
            parse_fault_spec("drop:0"),
            Ok(Some(FaultSpec { action: FaultAction::Drop, after: 0 }))
        );
        assert_eq!(
            parse_fault_spec("delay:2:150"),
            Ok(Some(FaultSpec {
                action: FaultAction::Delay(Duration::from_millis(150)),
                after: 2
            }))
        );
        assert_eq!(
            parse_fault_spec("truncate:7"),
            Ok(Some(FaultSpec { action: FaultAction::Truncate, after: 7 }))
        );
        assert_eq!(
            parse_fault_spec("corrupt:4"),
            Ok(Some(FaultSpec { action: FaultAction::Corrupt, after: 4 }))
        );
        assert_eq!(
            parse_fault_spec("stale:2"),
            Ok(Some(FaultSpec { action: FaultAction::Stale, after: 2 }))
        );
        for bad in [
            "kill", "kill:", "kill:x", "drop:1:2", "delay:1", "delay:1:", "explode:1", "kill:3:",
            "corrupt", "corrupt:1:2", "stale", "stale:x",
        ] {
            assert!(parse_fault_spec(bad).is_err(), "'{bad}' must be rejected: a chaos leg \
                 silently running faultless would be green CI lying");
        }
    }

    /// The backoff schedule over an injected clock: no sleeping, fully
    /// deterministic for a fixed seed.
    #[test]
    fn backoff_doubles_within_jitter_bounds_and_honors_the_deadline() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(80);
        let deadline = Duration::from_secs(100);
        let mut backoff = Backoff::new(base, max, deadline, 42);
        let mut nominal = base;
        // Attempt k's delay is jittered to 50–100% of the nominal,
        // which doubles up to `max` and then stays there.
        for attempt in 0..8 {
            let d = backoff.next_delay(Duration::ZERO).expect("deadline far away");
            assert!(
                d >= nominal.mul_f64(0.5) && d <= nominal,
                "attempt {attempt}: delay {d:?} outside [50%, 100%] of nominal {nominal:?}"
            );
            nominal = (nominal * 2).min(max);
        }
        // Same seed ⇒ same schedule, different seed ⇒ (almost surely)
        // a different one: the jitter decorrelates a worker herd.
        let delays = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(base, max, deadline, seed);
            (0..6).map(|_| b.next_delay(Duration::ZERO).unwrap()).collect()
        };
        assert_eq!(delays(7), delays(7), "fixed seed ⇒ deterministic schedule");
        assert_ne!(delays(7), delays(8), "different seeds ⇒ decorrelated schedules");
    }

    #[test]
    fn backoff_clips_to_the_deadline_then_expires() {
        let mut backoff = Backoff::new(
            Duration::from_millis(100),
            Duration::from_millis(100),
            Duration::from_millis(250),
            1,
        );
        // 240 ms elapsed of a 250 ms budget: whatever the jitter says,
        // the issued delay never overshoots the remaining 10 ms.
        let d = backoff.next_delay(Duration::from_millis(240)).unwrap();
        assert!(d <= Duration::from_millis(10), "delay {d:?} overshoots the deadline");
        // At (or past) the deadline the schedule is exhausted.
        assert_eq!(backoff.next_delay(Duration::from_millis(250)), None);
        assert_eq!(backoff.next_delay(Duration::from_secs(1)), None);
    }

    /// Wire a faulty dialer to a plain accepted stream, without any
    /// `MWP_FAULT` env staging (the spec is passed explicitly).
    fn faulty_pair(spec: FaultSpec) -> (Box<dyn FrameStream>, Box<dyn FrameStream>) {
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let dialer = connect_faulty(&endpoint, Some(spec)).unwrap();
        let accepted = listener.accept().unwrap();
        (dialer, accepted)
    }

    #[test]
    fn drop_fault_goes_mute_after_n_frames_but_heartbeats_never_count() {
        let (mut faulty, mut peer) =
            faulty_pair(FaultSpec { action: FaultAction::Drop, after: 2 });
        // A heartbeat before the trigger must not advance the count —
        // its timing is wall-clock-driven and would make the fault
        // frame nondeterministic.
        faulty.send_frame(&Frame::heartbeat()).unwrap();
        faulty.send_frame(&frame(FrameKind::BlockA, 0, 0, &[1u8; 8])).unwrap();
        faulty.send_frame(&frame(FrameKind::BlockA, 1, 0, &[2u8; 8])).unwrap();
        // Third data frame: the drop fires — the send "succeeds" (a
        // mute worker doesn't know it is mute) but nothing hits the wire.
        faulty.send_frame(&frame(FrameKind::BlockA, 2, 0, &[3u8; 8])).unwrap();
        assert_eq!(
            peer.recv_frame_capped(MAX_WIRE_LEN).unwrap().unwrap().tag.kind,
            FrameKind::Heartbeat
        );
        for i in 0..2 {
            let f = peer.recv_frame_capped(MAX_WIRE_LEN).unwrap().unwrap();
            assert_eq!(f.tag.i, i, "pre-trigger data frames pass unharmed");
        }
        // The peer sees a healthy socket that has simply gone silent:
        // only a read deadline can surface this.
        peer.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        assert!(peer.recv_frame_capped(MAX_WIRE_LEN).is_err(), "silence, not a frame or EOF");
    }

    #[test]
    fn delay_fault_stalls_every_frame_past_the_trigger() {
        let stall = Duration::from_millis(120);
        let (mut faulty, mut peer) =
            faulty_pair(FaultSpec { action: FaultAction::Delay(stall), after: 1 });
        let t0 = std::time::Instant::now();
        faulty.send_frame(&frame(FrameKind::BlockB, 0, 0, &[0u8; 4])).unwrap();
        assert!(t0.elapsed() < stall, "pre-trigger frame goes out promptly");
        let t1 = std::time::Instant::now();
        faulty.send_frame(&frame(FrameKind::BlockB, 1, 0, &[0u8; 4])).unwrap();
        assert!(t1.elapsed() >= stall, "post-trigger frame is wedged for the delay");
        // Both frames do arrive — a wedged worker is slow, not gone.
        for i in 0..2 {
            assert_eq!(peer.recv_frame_capped(MAX_WIRE_LEN).unwrap().unwrap().tag.i, i);
        }
    }

    #[test]
    fn corrupt_fault_flips_one_bit_the_checksum_catches_and_the_stream_survives() {
        let (mut faulty, mut peer) =
            faulty_pair(FaultSpec { action: FaultAction::Corrupt, after: 1 });
        faulty.send_frame(&frame(FrameKind::BlockA, 0, 0, &[6u8; 32])).unwrap();
        // The trigger frame: its wire image goes out with one payload
        // bit flipped under a CRC computed over the clean bytes. The
        // sender sees a successful write — a corrupting NIC does not
        // report itself.
        faulty.send_frame(&frame(FrameKind::BlockA, 1, 0, &[6u8; 32])).unwrap();
        faulty.send_frame(&frame(FrameKind::BlockA, 2, 0, &[6u8; 32])).unwrap();
        assert_eq!(peer.recv_frame_capped(MAX_WIRE_LEN).unwrap().unwrap().tag.i, 0);
        let err = peer.recv_frame_capped(MAX_WIRE_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");
        // The fault fires once: the frame after the corrupted one is
        // clean, and because the corrupted image had an honest length
        // prefix the stream never desyncs. (In production the pump
        // thread exits on the error and the link is marked dead — the
        // frame-level recovery here just proves the blast radius is one
        // frame.)
        assert_eq!(peer.recv_frame_capped(MAX_WIRE_LEN).unwrap().unwrap().tag.i, 2);
    }

    #[test]
    fn stale_fault_replays_a_previous_generation_frame_verbatim() {
        let (mut faulty, mut peer) =
            faulty_pair(FaultSpec { action: FaultAction::Stale, after: 2 });
        let block =
            |i: usize, run: u32| Frame::new_in_run(Tag::new(FrameKind::CResult, i, 0), run, Bytes::from(vec![i as u8; 16]));
        // Run 1's frame is captured; run 2's first frame promotes it to
        // replay material; run 2's second frame trips the trigger, so
        // the run-1 image is replayed ahead of it — checksum intact,
        // generation stale.
        faulty.send_frame(&block(10, 1)).unwrap();
        faulty.send_frame(&block(20, 2)).unwrap();
        faulty.send_frame(&block(21, 2)).unwrap();
        let received: Vec<Frame> = (0..4)
            .map(|_| peer.recv_frame_capped(MAX_WIRE_LEN).unwrap().unwrap())
            .collect();
        assert_eq!(received[0], block(10, 1));
        assert_eq!(received[1], block(20, 2));
        assert_eq!(received[2], block(10, 1), "the stale replay rides between live frames");
        assert_eq!(received[3], block(21, 2));
        // Heartbeats and run-0 control frames are never captured, and
        // the replay fires exactly once.
        faulty.send_frame(&Frame::heartbeat()).unwrap();
        faulty.send_frame(&block(22, 2)).unwrap();
        assert_eq!(peer.recv_frame_capped(MAX_WIRE_LEN).unwrap().unwrap().tag.kind, FrameKind::Heartbeat);
        assert_eq!(peer.recv_frame_capped(MAX_WIRE_LEN).unwrap().unwrap(), block(22, 2));
    }

    #[test]
    fn truncate_fault_tears_a_frame_mid_write_and_poisons_the_stream() {
        let (mut faulty, mut peer) =
            faulty_pair(FaultSpec { action: FaultAction::Truncate, after: 1 });
        faulty.send_frame(&frame(FrameKind::BlockC, 0, 0, &[9u8; 64])).unwrap();
        // The trigger frame: an honest length prefix, half the bytes,
        // then the write "fails" — and every later send is poisoned.
        let torn = faulty.send_frame(&frame(FrameKind::BlockC, 1, 0, &[9u8; 64]));
        assert!(torn.is_err(), "the torn write surfaces as an error on the faulty side");
        assert!(
            faulty.send_frame(&Frame::heartbeat()).is_err(),
            "a torn stream stays broken — even heartbeats fail"
        );
        assert_eq!(peer.recv_frame_capped(MAX_WIRE_LEN).unwrap().unwrap().tag.i, 0);
        // The peer is now mid-frame on a stream that will never finish
        // it: dropping the faulty side turns that into corruption
        // (unexpected EOF), never a clean end-of-stream.
        drop(faulty);
        assert!(
            peer.recv_frame_capped(MAX_WIRE_LEN).is_err(),
            "a torn frame must read as corruption, not clean EOF"
        );
    }
}
