//! Run-lifecycle sentinels — the one place the control-plane magic
//! values live.
//!
//! Run boundaries ride on [`FrameKind::Control`] frames with a sentinel
//! in `tag.i`; the handshake (in [`crate::transport`]) uses the same
//! namespace for its own control traffic. Because every sentinel shares
//! the `tag.i` space of `Control` frames, the full allocation is
//! documented — and uniqueness-tested — here:
//!
//! | `tag.i` value   | meaning                  | defined in            |
//! |-----------------|--------------------------|-----------------------|
//! | `u32::MAX`      | `RUN_END`                | this module           |
//! | `u32::MAX - 1`  | `RUN_BEGIN`              | this module           |
//! | `u32::MAX - 2`  | `HELLO`                  | `transport`           |
//! | `u32::MAX - 3`  | `WELCOME`                | `transport`           |
//! | `u32::MAX - 4`  | `CHALLENGE`              | `transport`           |
//! | `u32::MAX - 5`  | `REJECT`                 | `transport`           |
//! | `u32::MAX - 6`  | `RUN_ABORT`              | this module           |
//!
//! The lifecycle frames themselves are built by the constructors below so
//! call sites never assemble a `Control` tag by hand. Their `run` field
//! is left at 0 — the link layer stamps every outbound frame with the
//! sending side's current run generation, so a `RUN_BEGIN` arrives
//! carrying the generation it opens (that is how workers learn it).

use crate::frame::{Frame, FrameKind, Tag};
use bytes::Bytes;

/// `tag.i` sentinel on a [`FrameKind::Control`] frame announcing the
/// start of a run; `tag.j` carries the run parameter (`q` for the matrix
/// runtimes, the packed LU parameter word for LU), and the frame's `run`
/// field carries the new run generation.
pub const RUN_BEGIN: u32 = u32::MAX - 1;

/// `tag.i` sentinel announcing the orderly end of a run: the master has
/// collected everything it needs and the worker should park.
pub const RUN_END: u32 = u32::MAX;

/// `tag.i` sentinel aborting a run cooperatively: the master has given
/// up on this run (deadline breach); the worker drains whatever data
/// frames were already queued ahead of the abort (one-port FIFO order
/// guarantees the abort is the last frame of the run), keeps its scratch
/// intact, and parks — ready for the next `RUN_BEGIN` on the same
/// session.
pub const RUN_ABORT: u32 = u32::MAX - 6;

/// Control frame opening a run; `param` is the runtime-specific run
/// parameter delivered in `tag.j`.
pub fn run_begin_frame(param: u32) -> Frame {
    Frame::new(
        Tag { kind: FrameKind::Control, i: RUN_BEGIN, j: param },
        Bytes::new(),
    )
}

/// Control frame closing a run in the orderly way.
pub fn run_end_frame() -> Frame {
    Frame::new(
        Tag { kind: FrameKind::Control, i: RUN_END, j: 0 },
        Bytes::new(),
    )
}

/// Control frame aborting the current run.
pub fn run_abort_frame() -> Frame {
    Frame::new(
        Tag { kind: FrameKind::Control, i: RUN_ABORT, j: 0 },
        Bytes::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{CHALLENGE, HELLO, REJECT, WELCOME};

    /// Every sentinel sharing the `Control` `tag.i` namespace must be
    /// distinct — the table in the module docs, enforced.
    #[test]
    fn control_sentinels_are_unique() {
        let all = [RUN_BEGIN, RUN_END, RUN_ABORT, HELLO, WELCOME, CHALLENGE, REJECT];
        for (a, &x) in all.iter().enumerate() {
            for (b, &y) in all.iter().enumerate() {
                if a != b {
                    assert_ne!(x, y, "sentinel collision at indices {a}/{b}");
                }
            }
        }
    }

    /// The constructors produce the exact tags the dispatch loops match
    /// on, with empty payloads and an unstamped (generation-0) run field.
    #[test]
    fn constructors_build_the_documented_tags() {
        let begin = run_begin_frame(42);
        assert_eq!(begin.tag.kind, FrameKind::Control);
        assert_eq!(begin.tag.i, RUN_BEGIN);
        assert_eq!(begin.tag.j, 42);
        assert_eq!(begin.run, 0);
        assert!(begin.payload.is_empty());

        let end = run_end_frame();
        assert_eq!(end.tag.kind, FrameKind::Control);
        assert_eq!(end.tag.i, RUN_END);
        assert_eq!(end.run, 0);
        assert!(end.payload.is_empty());

        let abort = run_abort_frame();
        assert_eq!(abort.tag.kind, FrameKind::Control);
        assert_eq!(abort.tag.i, RUN_ABORT);
        assert_eq!(abort.run, 0);
        assert!(abort.payload.is_empty());
    }

    /// Lifecycle frames are control traffic, never metered as blocks.
    #[test]
    fn lifecycle_frames_are_not_block_frames() {
        for f in [run_begin_frame(1), run_end_frame(), run_abort_frame()] {
            assert!(!f.tag.kind.is_block());
        }
    }
}
