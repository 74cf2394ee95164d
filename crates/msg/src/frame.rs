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
    /// Liveness traffic on socket links: the master's probe of a link it
    /// has had nothing to send on for a probe period, and the worker's
    /// answer to it (or its sign of life on a link it only receives on).
    /// Heartbeats are swallowed by the receiving pump/endpoint before any
    /// program sees them, carry no payload, and are never metered (the
    /// paper's cost model has no control traffic).
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

    /// Whether frames of this kind are matrix-block traffic: the data a
    /// link holds to its run generation, where a frame of no open run is
    /// stale. Control traffic is free in the paper's model and passes
    /// regardless of generation.
    pub fn is_block(self) -> bool {
        !matches!(self, FrameKind::Control | FrameKind::Shutdown | FrameKind::Heartbeat)
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
    /// The master's links structurally reject data frames of no open run,
    /// so a late frame from an aborted or superseded run can never corrupt
    /// a later one — independent of the sticky per-link death flag — and
    /// the runs that interleave on one link each receive only their own.
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
    /// prefix, and what [`Frame::decode_bytes`] reads back.
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

    /// Decode a buffer produced by [`Frame::encode`] **zero-copy**: the
    /// returned frame's payload is a refcounted slice of `buf`, not a
    /// copy. The payload's length is checked where `q` is known, by the
    /// receiver that reads its blocks.
    pub fn decode_bytes(buf: Bytes) -> Option<Frame> {
        let (tag, run) = Self::decode_header(&buf)?;
        Some(Frame { tag, run, payload: buf.slice(13..) })
    }

    fn decode_header(buf: &[u8]) -> Option<(Tag, u32)> {
        if buf.len() < 13 {
            return None;
        }
        let kind = FrameKind::from_wire_id(buf[0])?;
        let i = u32::from_le_bytes(buf[1..5].try_into().ok()?);
        let j = u32::from_le_bytes(buf[5..9].try_into().ok()?);
        let run = u32::from_le_bytes(buf[9..13].try_into().ok()?);
        Some((Tag { kind, i, j }, run))
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
        let back = Frame::decode_bytes(Bytes::from(wire)).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn run_generation_rides_the_wire() {
        // The generation survives the decode, and two frames that differ
        // only in generation are different frames: a replayed previous-run
        // frame can never pass for a current-run one.
        let f = Frame::new_in_run(Tag::new(FrameKind::CResult, 2, 4), 7, Bytes::from(vec![3u8; 32]));
        let wire = f.encode();
        assert_eq!(Frame::decode_bytes(Bytes::from(wire.clone())).unwrap().run, 7);
        let other = Frame::new_in_run(f.tag, 8, f.payload.clone());
        assert_ne!(f, other, "frames differing only in run generation are distinct");
        // Garbage in the generation bytes still decodes structurally —
        // the generation is an identity field, not a structure field; the
        // master's link rejects the mismatch and counts it as stale.
        let mut stale = wire;
        stale[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode_bytes(Bytes::from(stale)).unwrap().run, u32::MAX);
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
            assert_eq!(Frame::decode_bytes(Bytes::from(f.encode())).unwrap().tag.kind, kind);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Frame::decode_bytes(Bytes::from_static(&[0, 1, 2])).is_none()); // too short
        let mut wire = Frame::shutdown().encode();
        wire[0] = 200; // unknown kind
        assert!(Frame::decode_bytes(Bytes::from(wire)).is_none());
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
}
