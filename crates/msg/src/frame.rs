//! Typed message frames.
//!
//! A frame is the unit the message layer moves: a small tag plus an opaque
//! payload. Payloads are [`Bytes`] so that fan-out (e.g. re-sending the
//! same `B` block to several workers, which the paper's schedules do) is a
//! reference-count bump, not a copy.

use bytes::Bytes;

/// What a frame carries. The scheduling layer gives these their precise
/// meaning; the message layer only routes and meters them.
///
/// Matrix-block frames may carry a **run** of `n ≥ 1` adjacent blocks in
/// one payload (`n · 8q²` bytes); the tag addresses the first block and
/// the receiver derives `n` from the payload length. The runtimes use
/// this to ship a whole `B` row stretch or `A` column stretch as a single
/// zero-copy frame (metered as `n` blocks — the one-port cost model is
/// unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Block(s) of the input matrix `A` (tag = `(i, k)`; a run spans rows
    /// `i, i+1, …` of column `k`).
    BlockA,
    /// Block(s) of the input matrix `B` (tag = `(k, j)`; a run spans
    /// columns `j, j+1, …` of row `k`).
    BlockB,
    /// Block(s) of `C` sent master → worker (tag = `(i, j)`; a run spans
    /// columns `j, j+1, …` of row `i`).
    BlockC,
    /// Fully-updated block(s) of `C` returned worker → master (same run
    /// convention as [`FrameKind::BlockC`]).
    CResult,
    /// One LU step's pivot chain (Section 7 runtime): the pivot and its two
    /// panels as blocks, out as a task and back factored and solved (tag =
    /// `(pivot blocks, blocks after it)`).
    LuPanel,
    /// Scheduler-defined control message (no block accounting).
    Control,
    /// Orderly end-of-stream: the worker should drain and exit.
    Shutdown,
    /// Liveness probe exchanged on idle socket links. Heartbeats are
    /// swallowed by the receiving pump/endpoint before any program sees
    /// them, carry no payload, and are never metered (the paper's cost
    /// model has no control traffic, and heartbeats only flow when a
    /// link is otherwise idle).
    Heartbeat,
}

impl FrameKind {
    /// Stable wire id.
    fn wire_id(self) -> u8 {
        match self {
            FrameKind::BlockA => 0,
            FrameKind::BlockB => 1,
            FrameKind::BlockC => 2,
            FrameKind::CResult => 3,
            FrameKind::LuPanel => 4,
            FrameKind::Control => 5,
            FrameKind::Shutdown => 6,
            FrameKind::Heartbeat => 7,
        }
    }

    /// Decode a wire id.
    fn from_wire_id(b: u8) -> Option<FrameKind> {
        Some(match b {
            0 => FrameKind::BlockA,
            1 => FrameKind::BlockB,
            2 => FrameKind::BlockC,
            3 => FrameKind::CResult,
            4 => FrameKind::LuPanel,
            5 => FrameKind::Control,
            6 => FrameKind::Shutdown,
            7 => FrameKind::Heartbeat,
            _ => return None,
        })
    }

    /// Whether frames of this kind count as matrix-block traffic in the
    /// per-link statistics (control traffic is free in the paper's model).
    pub fn is_block(self) -> bool {
        !matches!(self, FrameKind::Control | FrameKind::Shutdown | FrameKind::Heartbeat)
    }

    /// The payload quantum a frame of this kind must respect for block
    /// side `q`, or `None` when the length is scheduler-defined.
    ///
    /// Matrix-block frames carry one or more `q × q` blocks of
    /// little-endian `f64`s, so their payload must be a nonzero multiple
    /// of `8q²` bytes; a shutdown frame is empty (quantum 0). `Control`
    /// and `LuPanel` payloads are variable.
    pub fn expected_payload_len(self, q: usize) -> Option<usize> {
        match self {
            FrameKind::BlockA | FrameKind::BlockB | FrameKind::BlockC | FrameKind::CResult => {
                Some(q * q * 8)
            }
            FrameKind::Shutdown | FrameKind::Heartbeat => Some(0),
            FrameKind::Control | FrameKind::LuPanel => None,
        }
    }
}

/// Frame address: kind plus two coordinates (block indices; meaning depends
/// on the kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag {
    /// What the payload is.
    pub kind: FrameKind,
    /// First coordinate (row-ish index).
    pub i: u32,
    /// Second coordinate (column-ish index).
    pub j: u32,
}

impl Tag {
    /// Convenience constructor.
    pub fn new(kind: FrameKind, i: usize, j: usize) -> Self {
        Tag { kind, i: i as u32, j: j as u32 }
    }
}

/// A routed message: tag + payload + the run generation it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Address/type of the message.
    pub tag: Tag,
    /// The **run generation** this frame belongs to: a per-session
    /// monotonically increasing counter stamped on every frame of a run
    /// (`RUN_BEGIN` announces it, every data frame repeats it). `0` means
    /// "outside any run" — handshake, heartbeat, and teardown traffic.
    /// Receivers structurally reject data frames whose generation is not
    /// their current run, so a late frame from an aborted or superseded
    /// run can never corrupt a later one — independent of the sticky
    /// per-link death flag, and the field the frame format needs for
    /// interleaved multi-run links later.
    pub run: u32,
    /// Opaque payload (block coefficients, little-endian f64s).
    pub payload: Bytes,
}

impl Frame {
    /// Build a frame (generation 0 — the session layer stamps the
    /// current run onto frames as they cross a link).
    pub fn new(tag: Tag, payload: Bytes) -> Self {
        Frame { tag, run: 0, payload }
    }

    /// Build a frame already stamped with a run generation.
    pub fn new_in_run(tag: Tag, run: u32, payload: Bytes) -> Self {
        Frame { tag, run, payload }
    }

    /// A shutdown frame.
    pub fn shutdown() -> Self {
        Frame {
            tag: Tag::new(FrameKind::Shutdown, 0, 0),
            run: 0,
            payload: Bytes::new(),
        }
    }

    /// A liveness-probe frame (empty payload, unmetered).
    pub fn heartbeat() -> Self {
        Frame {
            tag: Tag::new(FrameKind::Heartbeat, 0, 0),
            run: 0,
            payload: Bytes::new(),
        }
    }

    /// Total wire size: 13-byte header (kind + 3 × u32) + payload.
    pub fn wire_len(&self) -> usize {
        13 + self.payload.len()
    }

    /// Serialize to a contiguous buffer (header + payload). The channel
    /// transport moves frames without serializing; this is the wire image
    /// the socket transport (`crate::transport`) frames with a length
    /// prefix, and what byte-level tests decode.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.encode_header());
        out.extend_from_slice(&self.payload);
        out
    }

    /// The 13-byte wire header alone (kind + `i` + `j` + `run`,
    /// little-endian) — lets the socket transport write header and
    /// payload as two slices without assembling a contiguous copy of the
    /// payload. The `run` generation is **appended** after `j`, so the
    /// kind/`i`/`j` offsets are identical to the pre-generation header:
    /// a cross-version peer still reads the handshake's version fields
    /// correctly and degrades to a clean version rejection.
    pub fn encode_header(&self) -> [u8; 13] {
        let mut header = [0u8; 13];
        header[0] = self.tag.kind.wire_id();
        header[1..5].copy_from_slice(&self.tag.i.to_le_bytes());
        header[5..9].copy_from_slice(&self.tag.j.to_le_bytes());
        header[9..13].copy_from_slice(&self.run.to_le_bytes());
        header
    }

    /// Decode a buffer produced by [`Frame::encode`].
    ///
    /// Copies the payload out of the borrowed buffer; prefer
    /// [`Frame::decode_bytes`] when the buffer is already a [`Bytes`].
    pub fn decode(buf: &[u8]) -> Option<Frame> {
        let (tag, run, _) = Self::decode_header(buf)?;
        Some(Frame { tag, run, payload: Bytes::copy_from_slice(&buf[13..]) })
    }

    /// Decode a shared buffer **zero-copy**: the returned frame's payload
    /// is a refcounted slice of `buf`, not a copy.
    pub fn decode_bytes(buf: Bytes) -> Option<Frame> {
        let (tag, run, _) = Self::decode_header(&buf)?;
        Some(Frame { tag, run, payload: buf.slice(13..) })
    }

    /// Decode and validate: when the frame kind fixes its payload quantum
    /// (any matrix-block kind, shutdown), a mismatched payload — truncated
    /// coefficients or trailing garbage after a valid header — is rejected
    /// instead of being passed through to a worker. Block frames must
    /// carry a nonzero whole number of `8q²`-byte blocks. The length is
    /// validated **before** the payload is copied out of `buf`, so a
    /// malformed buffer costs no allocation.
    pub fn decode_checked(buf: &[u8], q: usize) -> Option<Frame> {
        let (tag, run, payload_len) = Self::decode_header(buf)?;
        match tag.kind.expected_payload_len(q) {
            Some(0) if payload_len != 0 => return None,
            Some(quantum) if quantum != 0 && (payload_len == 0 || payload_len % quantum != 0) => {
                return None;
            }
            _ => {}
        }
        Some(Frame { tag, run, payload: Bytes::copy_from_slice(&buf[13..]) })
    }

    /// The payload quantum this frame must respect for block side `q`
    /// (see [`FrameKind::expected_payload_len`]).
    pub fn expected_payload_len(&self, q: usize) -> Option<usize> {
        self.tag.kind.expected_payload_len(q)
    }

    fn decode_header(buf: &[u8]) -> Option<(Tag, u32, usize)> {
        if buf.len() < 13 {
            return None;
        }
        let kind = FrameKind::from_wire_id(buf[0])?;
        let i = u32::from_le_bytes(buf[1..5].try_into().ok()?);
        let j = u32::from_le_bytes(buf[5..9].try_into().ok()?);
        let run = u32::from_le_bytes(buf[9..13].try_into().ok()?);
        Some((Tag { kind, i, j }, run, buf.len() - 13))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let f = Frame::new(
            Tag::new(FrameKind::BlockB, 3, 17),
            Bytes::from_static(b"payload-bytes"),
        );
        let wire = f.encode();
        assert_eq!(wire.len(), f.wire_len());
        let back = Frame::decode(&wire).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn run_generation_rides_the_wire() {
        // The generation survives every decode path, and two frames that
        // differ only in generation are different frames: a replayed
        // previous-run frame can never pass for a current-run one.
        let f = Frame::new_in_run(Tag::new(FrameKind::CResult, 2, 4), 7, Bytes::from(vec![3u8; 32]));
        let wire = f.encode();
        assert_eq!(Frame::decode(&wire).unwrap().run, 7);
        assert_eq!(Frame::decode_bytes(Bytes::from(wire.clone())).unwrap().run, 7);
        assert_eq!(Frame::decode_checked(&wire, 2).unwrap().run, 7);
        let other = Frame::new_in_run(f.tag, 8, f.payload.clone());
        assert_ne!(f, other, "frames differing only in run generation are distinct");
        // Garbage in the generation bytes still decodes structurally —
        // the generation is an identity field, not a structure field; the
        // receive path rejects the mismatch, counted in LinkStats.
        let mut stale = wire;
        stale[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&stale).unwrap().run, u32::MAX);
    }

    #[test]
    fn all_kinds_roundtrip() {
        for kind in [
            FrameKind::BlockA,
            FrameKind::BlockB,
            FrameKind::BlockC,
            FrameKind::CResult,
            FrameKind::LuPanel,
            FrameKind::Control,
            FrameKind::Shutdown,
            FrameKind::Heartbeat,
        ] {
            let f = Frame::new(Tag::new(kind, 1, 2), Bytes::new());
            assert_eq!(Frame::decode(&f.encode()).unwrap().tag.kind, kind);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Frame::decode(&[]).is_none());
        assert!(Frame::decode(&[0, 1, 2]).is_none()); // too short
        let mut wire = Frame::shutdown().encode();
        wire[0] = 200; // unknown kind
        assert!(Frame::decode(&wire).is_none());
    }

    #[test]
    fn decode_bytes_rejects_truncated_and_garbage_buffers() {
        // The zero-copy decoder feeds the socket transport, where
        // truncated buffers and corrupt tags are real inputs — every
        // malformed shape must be a clean `None`, never a panic or a
        // mis-sliced payload.
        assert!(Frame::decode_bytes(Bytes::new()).is_none());
        let full = Frame::new(Tag::new(FrameKind::BlockB, 1, 2), Bytes::from(vec![5u8; 16])).encode();
        for cut in 0..13 {
            assert!(
                Frame::decode_bytes(Bytes::from(full[..cut].to_vec())).is_none(),
                "header truncated to {cut} bytes must not decode"
            );
        }
        // Exactly the header, no payload: decodes with an empty payload.
        let header_only = Frame::decode_bytes(Bytes::from(full[..13].to_vec())).unwrap();
        assert!(header_only.payload.is_empty());
        // Every unknown kind byte is rejected.
        for bad_kind in [8u8, 100, 255] {
            let mut wire = full.clone();
            wire[0] = bad_kind;
            assert!(Frame::decode_bytes(Bytes::from(wire)).is_none(), "kind {bad_kind}");
        }
    }

    #[test]
    fn encode_header_matches_encode_prefix() {
        let f = Frame::new_in_run(Tag::new(FrameKind::LuPanel, 77, 99), 5, Bytes::from(vec![1u8; 10]));
        assert_eq!(&f.encode()[..13], &f.encode_header());
    }

    #[test]
    fn block_accounting_classification() {
        assert!(FrameKind::BlockA.is_block());
        assert!(FrameKind::CResult.is_block());
        assert!(!FrameKind::Control.is_block());
        assert!(!FrameKind::Shutdown.is_block());
        assert!(!FrameKind::Heartbeat.is_block());
    }

    #[test]
    fn payload_sharing_is_zero_copy() {
        let payload = Bytes::from(vec![7u8; 1024]);
        let a = Frame::new(Tag::new(FrameKind::BlockB, 0, 0), payload.clone());
        let b = Frame::new(Tag::new(FrameKind::BlockB, 0, 1), payload.clone());
        // Same backing storage.
        assert_eq!(a.payload.as_ptr(), b.payload.as_ptr());
    }

    #[test]
    fn decode_bytes_is_zero_copy() {
        let f = Frame::new(Tag::new(FrameKind::BlockA, 2, 5), Bytes::from(vec![9u8; 128]));
        let wire = Bytes::from(f.encode());
        let back = Frame::decode_bytes(wire.clone()).unwrap();
        assert_eq!(back, f);
        // The payload is a slice of the wire buffer, not a copy.
        assert_eq!(back.payload.as_ptr(), unsafe { wire.as_ptr().add(13) });
    }

    #[test]
    fn expected_payload_len_by_kind() {
        let q = 4;
        for kind in [FrameKind::BlockA, FrameKind::BlockB, FrameKind::BlockC, FrameKind::CResult] {
            assert_eq!(kind.expected_payload_len(q), Some(128));
        }
        assert_eq!(FrameKind::Shutdown.expected_payload_len(q), Some(0));
        assert_eq!(FrameKind::Heartbeat.expected_payload_len(q), Some(0));
        assert_eq!(FrameKind::Control.expected_payload_len(q), None);
        assert_eq!(FrameKind::LuPanel.expected_payload_len(q), None);
    }

    #[test]
    fn decode_checked_rejects_bad_block_lengths() {
        let q = 2; // the block quantum is 32 payload bytes
        let good = Frame::new(Tag::new(FrameKind::BlockB, 0, 0), Bytes::from(vec![1u8; 32]));
        assert!(Frame::decode_checked(&good.encode(), q).is_some());

        // A run of three blocks is also valid.
        let run = Frame::new(Tag::new(FrameKind::BlockB, 0, 0), Bytes::from(vec![1u8; 96]));
        assert!(Frame::decode_checked(&run.encode(), q).is_some());

        // Trailing garbage after a valid header + block payload.
        let mut wire = good.encode();
        wire.extend_from_slice(b"garbage");
        assert!(Frame::decode(&wire).is_some(), "plain decode cannot know q");
        assert!(Frame::decode_checked(&wire, q).is_none(), "checked decode must reject");

        // Truncated coefficients.
        let short = Frame::new(Tag::new(FrameKind::BlockA, 0, 0), Bytes::from(vec![1u8; 31]));
        assert!(Frame::decode_checked(&short.encode(), q).is_none());

        // An empty block frame carries no block at all.
        let empty = Frame::new(Tag::new(FrameKind::BlockC, 0, 0), Bytes::new());
        assert!(Frame::decode_checked(&empty.encode(), q).is_none());

        // Shutdown must be empty.
        let mut bad_shutdown = Frame::shutdown().encode();
        bad_shutdown.push(0);
        assert!(Frame::decode_checked(&bad_shutdown, q).is_none());

        // Control payloads are scheduler-defined: any length passes.
        let ctl = Frame::new(Tag::new(FrameKind::Control, 0, 0), Bytes::from(vec![0u8; 7]));
        assert!(Frame::decode_checked(&ctl.encode(), q).is_some());
    }
}
