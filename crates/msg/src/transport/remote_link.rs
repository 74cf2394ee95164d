//! [`RemoteLink`]: the master-facing half of a socket link.

use super::framing::{FrameRead, FrameWrite};
use crate::frame::{Frame, FrameKind};
use crate::link::{Link, MasterSide, Pacing};
use mwp_platform::WorkerId;
use std::sync::mpsc::RecvTimeoutError;
use std::thread::{self, JoinHandle};
use std::time::Duration;

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
    /// `id` with per-block cost `c` and the network's pacing. With a
    /// `heartbeat` interval (the session's liveness setting) the out
    /// pump probes the worker whenever the link is idle that long.
    pub fn attach(
        reader: Box<dyn FrameRead>,
        writer: Box<dyn FrameWrite>,
        c: f64,
        pacing: Pacing,
        id: WorkerId,
        heartbeat: Option<Duration>,
    ) -> RemoteLink {
        let (master_side, worker_side) = Link::new(c, pacing).split();
        let (to_worker_rx, to_master_tx) = worker_side.into_channels();
        let mut writer = writer;
        let out_pump = thread::Builder::new()
            .name(format!("mwp-pump-out-{}", id.index()))
            .spawn(move || {
                loop {
                    let next = match heartbeat {
                        Some(interval) => to_worker_rx.recv_timeout(interval),
                        None => to_worker_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    };
                    let frame = match next {
                        Ok(f) => f,
                        // Idle-link-only heartbeats: a probe goes out only
                        // when a full heartbeat period passed with nothing
                        // to forward, so a busy link pays zero overhead.
                        Err(RecvTimeoutError::Timeout) => {
                            if writer.send_frame(&Frame::heartbeat()).is_err() {
                                break; // worker gone; in-pump reports it
                            }
                            continue;
                        }
                        // Master endpoint dropped without a shutdown frame:
                        // synthesize one so the remote worker still sees an
                        // orderly close.
                        Err(RecvTimeoutError::Disconnected) => {
                            let _ = writer.send_frame(&Frame::shutdown());
                            break;
                        }
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
                // the split), so a worker silent past the liveness deadline —
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
