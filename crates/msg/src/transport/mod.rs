//! Socket transport: master and workers as separate processes (or hosts).
//!
//! The channel-backed star ([`crate::net::StarNetwork`]) moves [`Frame`]s
//! through in-process channels. This module grows the message stack a
//! second backend with the **same master-side semantics**: frames travel
//! length-prefixed over a TCP or Unix-domain socket, while the one-port
//! arbiter, link pacing, and the stale count all stay on the master
//! side of the wire, exactly where the paper's model puts them — a link
//! is nothing but its cost `c_i`, whatever carries its bytes.
//!
//! One file per seam, bottom to top:
//!
//! * **`framing`** — [`write_frames_to`] (with its one-frame case
//!   [`write_frame_to`]) / [`read_frame_from`]: a `u32` little-endian
//!   length prefix followed by the [`Frame::encode`] image (13-byte
//!   header + payload) and a CRC32C trailer over the encoded image,
//!   verified on receive so a flipped bit anywhere in header or payload
//!   surfaces as stream corruption instead of silently wrong
//!   coefficients. A batch of frames goes out in one vectored write.
//!   These functions are public, so a test can build a
//!   [`FrameStream`] of its own over a raw socket: the worker crate's
//!   chaos tests inject their faults that way, and no fault path ships.
//!   Receives land in recycled [`crate::BufferPool`] buffers and are
//!   decoded zero-copy with [`Frame::decode_bytes`];
//!   adversarial input (truncated streams, oversized or undersized length
//!   prefixes, unknown frame tags, mismatched checksums) is rejected with
//!   an [`std::io::Error`], never a panic. Also the framed-stream traits
//!   [`FrameRead`] / [`FrameWrite`] / [`FrameStream`]: a stream splits
//!   into independently-owned read and write halves so a link can pump
//!   both directions concurrently.
//! * **`socket`** — the one socket-backed [`FrameStream`] (TCP and
//!   Unix-domain sockets are the same stream type over two raw socket
//!   families), [`TransportListener`] / [`connect`] with `tcp://host:port`
//!   and `uds:/path` address strings ([`TransportListener::bind_tcp`] /
//!   [`TransportListener::bind_uds`] move the master off loopback for
//!   real multi-host fleets), and the [`Backoff`] retry loop behind
//!   [`connect_with_retry`]. An in-process worker gets no listener at all:
//!   its session wires it a connected pair of its own (a Unix socket pair,
//!   or a loopback TCP connection through a private listener dropped at
//!   once). The stream reads through a 64 KiB buffer,
//!   so one `read` takes in every frame queued on the socket;
//!   [`socket_calls`] counts its `read` and `write` calls.
//! * **`handshake`** — an authenticated four-frame exchange (protocol
//!   version [`PROTOCOL_VERSION`]): the master opens with a
//!   [challenge](challenge_frame) nonce, the worker answers with a
//!   [`Hello`] (fleet epoch, its own nonce, fingerprint bytes) carrying
//!   an HMAC over the challenge and every asserted field keyed by the shared fleet secret ([`crate::config::Config::fleet_secret`]),
//!   and the master closes with a [`Welcome`] (assigned
//!   [`mwp_platform::WorkerId`], the worker's `(c, w, m)` parameters, the
//!   pacing scale, and the membership epoch) MAC'd over the worker's nonce — mutual authentication,
//!   replay-proof in both directions. The worker confirms the welcome
//!   with a heartbeat before the master attaches its link, so a peer
//!   that dies mid-handshake never takes a slot. A peer that fails any check gets a
//!   [`REJECT`] frame naming the reason and is dropped; a pre-v2 or
//!   future-version peer degrades to that clean rejection instead of a
//!   decode panic. All frames ride the frame format itself, as `Control`
//!   frames with reserved sentinels (the confirmation is a plain
//!   heartbeat), under the [`HANDSHAKE_TIMEOUT`] read
//!   deadline. The master side of the exchange exists once (the star
//!   enrollment loop and `Session::admit` both call it, each naming the
//!   slot it fills); the worker side is
//!   [`enroll_with`] / [`enroll_with_retry`]: connect, answer the challenge,
//!   await and confirm the welcome, and get back a socket-backed
//!   [`crate::WorkerEndpoint`] that the existing worker programs
//!   (`mwp-core`'s Algorithm 2 loop) drive unchanged.
//! * **`remote_link`** — [`RemoteLink`], the master-facing half of a
//!   socket link: a channel-backed [`crate::link::MasterSide`] (so
//!   [`crate::MasterEndpoint`] is byte-for-byte the code the channel
//!   transport uses) bridged to the socket by two pump threads. The out
//!   pump writes every frame already queued when it wakes as one batch,
//!   one vectored write; no frame waits for another. It also probes a
//!   link idle for a probe period, and the worker's endpoint answers:
//!   liveness is the master's, and a worker runs no thread for it. The pumps pace
//!   nothing — pacing and the stale count happen in the `MasterSide` they
//!   feed, so a socket link and a channel link are indistinguishable to
//!   the runtime above.
//!
//! Which backend a [`crate::Session`] wires is a constructor argument:
//! `Session::spawn` means channels, `Session::spawn_with_transport` takes
//! a [`TransportMode`]; out-of-process workers attach via
//! `Session::accept_remote` + the `mwp-worker` binary, each side handed
//! the deployment's [`crate::config::Config`].

#[cfg(doc)]
use crate::frame::Frame;

mod framing;
mod handshake;
mod remote_link;
mod socket;

pub use framing::{
    read_frame_from, write_frame_to, write_frames_to, FrameRead, FrameStream, FrameWrite,
    MAX_HANDSHAKE_WIRE_LEN, MAX_WIRE_LEN,
};
pub(crate) use handshake::{master_enroll, EnrollTerms};
pub use handshake::{
    challenge_frame, enroll_with, enroll_with_retry, hello_authentic, hello_frame,
    is_reject, master_challenge, master_read_hello, parse_challenge, parse_hello, parse_welcome,
    reject_error, reject_frame, welcome_frame, Hello, Welcome, CHALLENGE, HANDSHAKE_TIMEOUT,
    HELLO, PROTOCOL_VERSION, REJECT, REJECT_AUTH, REJECT_EPOCH, REJECT_VERSION, WELCOME,
};
pub use remote_link::RemoteLink;
pub(crate) use socket::stream_pair;
pub use socket::{
    connect, connect_with_retry, socket_calls, Backoff, SocketCalls, TransportListener,
};

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

#[cfg(test)]
mod tests;
