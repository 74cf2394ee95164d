//! Deterministic fault injection (`MWP_FAULT`): an optional trigger a
//! socket stream consults on its send path.

use super::framing::{write_frame_to, HEADER_LEN};
use crate::frame::{Frame, FrameKind};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

/// What a faulty stream does once its trigger fires.
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
    /// itself stays healthy: the receiver's checksum detects the flip
    /// and declares the link corrupt instead of delivering silently
    /// wrong coefficients — the very failure the checksum exists to
    /// catch.
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
    /// Handshake-stage faults fire once, inside
    /// [`enroll_with`](super::enroll_with), instead of riding the
    /// stream's send path like the data-plane faults.
    pub fn is_handshake(self) -> bool {
        matches!(self, FaultAction::BadHello | FaultAction::BadAuth)
    }
}

/// A deterministic transport fault: after `after` outbound data frames
/// (heartbeats are not counted — their timing is wall-clock-driven and
/// would make the trigger nondeterministic), the stream performs its
/// [`FaultAction`]. Parsed from `MWP_FAULT` by
/// [`crate::config::parse_fault_spec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The misbehavior.
    pub action: FaultAction,
    /// How many outbound data frames pass unharmed first.
    pub after: u64,
}

/// Trigger state of one faulty connection, shared by the unsplit stream
/// and its split write half so frames sent before the split count toward
/// the trigger. Only **outbound** frames run through it (reads are
/// untouched — the faults model a misbehaving *worker*, and the state
/// sits on the worker's side of the wire).
pub(super) struct FaultState {
    spec: FaultSpec,
    sent: AtomicU64,
    poisoned: AtomicBool,
    /// `stale` capture: the most recent outbound data frame's (run
    /// generation, full wire image). When a frame from a *newer* run
    /// comes through, the held image is promoted to `stale_image` — a
    /// guaranteed previous-generation frame.
    last: Mutex<Option<(u32, Vec<u8>)>>,
    /// `stale` replay material: a verbatim wire image from a previous
    /// run generation, valid checksum and all.
    stale_image: Mutex<Option<Vec<u8>>>,
    /// The stale replay fires at most once.
    fired: AtomicBool,
}

/// A frame's full wire image — length prefix, header, payload, CRC
/// trailer — exactly as the honest write path would emit it.
fn wire_image(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + frame.wire_len() + 4);
    write_frame_to(&mut out, frame, true).expect("writing to a Vec cannot fail");
    out
}

impl FaultState {
    pub(super) fn new(spec: FaultSpec) -> Self {
        FaultState {
            spec,
            sent: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            last: Mutex::new(None),
            stale_image: Mutex::new(None),
            fired: AtomicBool::new(false),
        }
    }

    /// Run one outbound frame through the fault: `Ok(true)` forward it,
    /// `Ok(false)` swallow it, `Err` fail the write. May sleep (delay),
    /// abort the process (kill), or poison the writer (truncate).
    pub(super) fn on_send(&self, frame: &Frame, w: &mut dyn Write) -> io::Result<bool> {
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
                let wire_len = frame.wire_len() + 4;
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
                let mut image = wire_image(frame);
                // Flip one bit past the length prefix — in the payload
                // when there is one, else in the header — while leaving
                // the CRC trailer itself intact, so the trailer honestly
                // vouches for bytes that are no longer there.
                let body_end = image.len() - 4;
                let flip_at = (4 + HEADER_LEN).min(body_end - 1);
                image[flip_at] ^= 0x01;
                w.write_all(&image)?;
                w.flush()?;
                Ok(false)
            }
            FaultAction::Stale => unreachable!("handled above"),
            // Handshake faults never reach the send path — they are
            // consumed by `enroll_with` before any data frame exists.
            FaultAction::BadHello | FaultAction::BadAuth => Ok(true),
        }
    }

    /// The `stale` fault's send path: capture run-stamped data frames,
    /// promote a captured image to replay material once a newer run
    /// generation appears, and — at the trigger count, once — write the
    /// stale image ahead of the real frame.
    fn stale_on_send(&self, frame: &Frame, n: u64, w: &mut dyn Write) -> io::Result<bool> {
        // Only run-stamped data frames are capture-worthy: control
        // traffic (hello, run sentinels) rides run 0 or is structurally
        // special, and replaying it would test the wrong rejection.
        if frame.tag.kind.is_block() && frame.run != 0 {
            let image = wire_image(frame);
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
