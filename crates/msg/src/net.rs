//! Building the star network from a platform description.

use crate::config::Config;
use crate::endpoint::{MasterEndpoint, WorkerEndpoint};
use crate::link::{Link, Pacing};
use crate::port::OnePort;
use mwp_platform::Platform;

/// A fully wired star network: one master endpoint, `p` worker endpoints.
///
/// ```
/// use mwp_platform::Platform;
/// use mwp_msg::{StarNetwork, Frame, FrameKind, Tag};
/// use mwp_platform::WorkerId;
/// use bytes::Bytes;
///
/// let platform = Platform::homogeneous(2, 1.0, 1.0, 16).unwrap();
/// let net = StarNetwork::build(&platform, 0.0);
/// let (master, mut workers) = net.into_endpoints();
/// let w0 = workers.remove(0);
/// std::thread::spawn(move || {
///     let f = w0.recv().unwrap();
///     w0.send(f); // echo
/// });
/// master.send(WorkerId(0),
///     Frame::new(Tag::new(FrameKind::Control, 0, 0), Bytes::new()), 0);
/// let (echoed, _) = master.recv(WorkerId(0), 0).unwrap();
/// assert_eq!(echoed.tag.kind, FrameKind::Control);
/// ```
pub struct StarNetwork {
    master: MasterEndpoint,
    workers: Vec<WorkerEndpoint>,
}

impl StarNetwork {
    /// Wire a star for `platform`. `time_scale` is wall seconds per model
    /// time unit (0 disables pacing; see [`Pacing`]). The master
    /// endpoint's receive deadline is [`Config::default`]'s.
    pub fn build(platform: &Platform, time_scale: f64) -> Self {
        let pacing = Pacing { time_scale };
        let port = OnePort::new();
        let mut master_sides = Vec::with_capacity(platform.len());
        let mut workers = Vec::with_capacity(platform.len());
        for (id, params) in platform.iter() {
            let (m, w) = Link::new(params.c, pacing).split();
            master_sides.push(m);
            workers.push(WorkerEndpoint::new(id, w));
        }
        StarNetwork {
            master: MasterEndpoint::new(port, master_sides, Config::default().liveness),
            workers,
        }
    }

    /// Take ownership of the endpoints (master, workers-in-id-order).
    pub fn into_endpoints(self) -> (MasterEndpoint, Vec<WorkerEndpoint>) {
        (self.master, self.workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, FrameKind, Tag};
    use mwp_platform::WorkerId;
    use bytes::Bytes;
    use std::thread;

    #[test]
    fn build_respects_platform_costs() {
        let platform = mwp_platform::Platform::new(vec![
            mwp_platform::WorkerParams::new(2.0, 1.0, 8),
            mwp_platform::WorkerParams::new(7.0, 1.0, 8),
        ])
        .unwrap();
        let (master, _workers) = StarNetwork::build(&platform, 0.0).into_endpoints();
        assert_eq!(master.link_cost(WorkerId(0)), 2.0);
        assert_eq!(master.link_cost(WorkerId(1)), 7.0);
        assert_eq!(master.workers(), 2);
    }

    #[test]
    fn full_star_roundtrip() {
        let platform = mwp_platform::Platform::homogeneous(4, 1.0, 1.0, 8).unwrap();
        let (master, workers) = StarNetwork::build(&platform, 0.0).into_endpoints();
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| {
                thread::spawn(move || loop {
                    let f = w.recv().unwrap();
                    if f.tag.kind == FrameKind::Shutdown {
                        break;
                    }
                    w.send(Frame::new(
                        Tag::new(FrameKind::CResult, f.tag.i as usize, f.tag.j as usize),
                        f.payload,
                    ));
                })
            })
            .collect();
        for round in 0..3 {
            for i in 0..4 {
                master.send(
                    WorkerId(i),
                    Frame::new(Tag::new(FrameKind::BlockC, round, i), Bytes::from_static(b"p")),
                    1,
                );
            }
            for i in 0..4 {
                let (f, _) = master.recv(WorkerId(i), 1).unwrap();
                assert_eq!(f.tag.i as usize, round);
            }
        }
        for i in 0..4 {
            master.send(WorkerId(i), Frame::shutdown(), 0);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(master.total_blocks(), 24);
    }
}
