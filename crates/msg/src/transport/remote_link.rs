//! [`RemoteLink`]: the master-facing half of a socket link.

use super::framing::{FrameRead, FrameWrite};
use crate::frame::{Frame, FrameKind};
use crate::link::{link, MasterSide, Pacing};
use mwp_platform::WorkerId;
use std::sync::mpsc::RecvTimeoutError;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Most frames the out pump writes in one batch: at 3 slices per frame a
/// batch stays within Linux's `IOV_MAX` of 1024, so one `writev` can take
/// it whole.
const MAX_BATCH: usize = 256;

/// The master side of one socket-backed link.
///
/// Internally this is a [`MasterSide`] — the very struct the channel
/// transport hands to [`crate::MasterEndpoint`], with pacing and the
/// stale count untouched — whose worker half is bridged to the socket by
/// two pump threads:
///
/// * the **out pump** drains master→worker frames from the channel onto
///   the socket: it waits for one frame, takes every frame already queued
///   behind it (at most 256) and writes them with one vectored write,
///   then drops them; it exits after forwarding a [`Frame::shutdown`]
///   (or, when the master endpoint drops without one, after sending a
///   best-effort shutdown of its own), so the remote worker always
///   observes an orderly end-of-session;
/// * the **in pump** reads worker→master frames off the socket, through
///   the read half's buffer (one `read` takes in every frame queued on
///   it), files each in the link's inbox under its run generation, and
///   exits on EOF or a transport error — at which point a master blocked
///   in `recv` observes the same closed link the in-process transport
///   produces.
///
/// Pump threads never pace: the master pays for a transfer when the frame
/// crosses its `MasterSide`, exactly as with channel links, so the
/// one-port model's costs are transport-independent.
pub struct RemoteLink {
    side: MasterSide,
    pumps: [JoinHandle<()>; 2],
}

impl RemoteLink {
    /// Bridge split stream halves into a link for worker `id` with
    /// per-block cost `c` and the network's pacing. With a `heartbeat`
    /// interval (the session's [`crate::config::Config::probe_period`])
    /// the out pump probes the worker whenever the link is idle that long;
    /// the worker answers each probe.
    pub fn attach(
        reader: Box<dyn FrameRead>,
        writer: Box<dyn FrameWrite>,
        c: f64,
        pacing: Pacing,
        id: WorkerId,
        heartbeat: Option<Duration>,
    ) -> RemoteLink {
        let (master_side, worker_side) = link(c, pacing);
        let (to_worker_rx, to_master) = worker_side.split();
        let mut writer = writer;
        let out_pump = thread::Builder::new()
            .name(format!("mwp-pump-out-{}", id.index()))
            .spawn(move || {
                let mut batch = Vec::with_capacity(MAX_BATCH);
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
                    // Take what is already queued behind it, up to a
                    // shutdown, and write the lot at once.
                    let mut is_shutdown = frame.tag.kind == FrameKind::Shutdown;
                    batch.push(frame);
                    while !is_shutdown && batch.len() < MAX_BATCH {
                        let Ok(frame) = to_worker_rx.try_recv() else { break };
                        is_shutdown = frame.tag.kind == FrameKind::Shutdown;
                        batch.push(frame);
                    }
                    let sent = writer.send_frames(&batch);
                    batch.clear();
                    if sent.is_err() || is_shutdown {
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
                // read. Any exit marks the link dead and drops the inbox
                // sender, which a master blocked in `recv` observes as the
                // same closed link the in-process transport produces.
                // Worker heartbeats (answers to the out pump's probes, or
                // a receiving worker's sign of life) are swallowed here;
                // they exist only to feed the socket's deadline.
                loop {
                    match reader.recv_frame() {
                        Ok(Some(f)) if f.tag.kind == FrameKind::Heartbeat => continue,
                        Ok(Some(f)) => {
                            if !to_master.send(f) {
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
