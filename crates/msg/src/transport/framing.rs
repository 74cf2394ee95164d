//! Wire framing: the length-prefixed, CRC32C-trailed frame image and the
//! framed-stream traits every socket link is driven through.

use crate::checksum::{crc32c, Crc32c};
use crate::frame::Frame;
use crate::pool::BufferPool;
use std::io::{self, Read, Write};
use std::time::Duration;

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
pub(super) const HEADER_LEN: usize = 13;

/// Write `frame` to `w` as `u32 LE wire length` + the [`Frame::encode`]
/// image, without intermediate allocation: the 17 fixed bytes, the
/// payload (zero-copy from the frame's [`bytes::Bytes`]), and — with
/// `checksum` on — a CRC32C over the encoded image (header + payload,
/// **not** the length prefix) as a `u32 LE` trailer covered by the length
/// prefix. Socket links always pass `checksum = true`; the trailer-less
/// image exists only for callers that frame over their own byte streams.
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

/// A connected, bidirectional framed byte stream — both halves in one —
/// that can split into independently-owned halves (each direction pumped
/// by its own thread).
///
/// The whole-stream `send_frame`/`recv_frame_capped`/`set_read_timeout`
/// surface exists for the **pre-split enrollment handshake**: an
/// unauthenticated peer's first frames are read on a small wire-length
/// budget and under a read deadline, so a stray or hostile connection
/// can neither trigger a large allocation nor park an accept loop
/// forever. After the handshake the stream splits and the deadline is
/// swapped for the liveness deadline (or cleared, with liveness off —
/// enrolled links then block indefinitely, as the session protocol
/// requires).
pub trait FrameStream: FrameRead + FrameWrite {
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
