//! The enrollment handshake: the challenge → hello → welcome exchange,
//! closed by the worker's heartbeat, that turns a fresh connection into
//! an authenticated link, on both the master side ([`master_enroll`]) and
//! the worker side ([`enroll_with`]).

use super::framing::{FrameStream, MAX_HANDSHAKE_WIRE_LEN};
use super::remote_link::RemoteLink;
use super::socket::{connect, retry_transient};
use crate::auth;
use crate::config::Config;
use crate::endpoint::WorkerEndpoint;
use crate::frame::{Frame, FrameKind, Tag};
use crate::link::Pacing;
use bytes::Bytes;
use mwp_platform::{WorkerId, WorkerParams};
use std::io;
use std::time::Duration;

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
/// the CRC32C trailer part of the wire format): a v2 peer would misread
/// every data frame, so it must be refused at the door, not discovered
/// via corruption mid-run. v4 changed the LU service's op set (one fused
/// `OP_PANEL` exchange per step). v5 retired the LU service: the
/// matrix-product program gained the `LuPanel` exchange and serves LU's
/// trailing updates as its own chunk exchanges. A v4 `mwp-worker` would
/// meet a `LuPanel` task its product program does not know mid-run, so it
/// is refused at enrollment. v6 dropped the welcome's service byte. v7
/// has the worker confirm the welcome with a heartbeat before the master
/// attaches its link, so a peer that dies between its hello and the
/// welcome fails enrollment instead of taking a slot. v8 makes liveness
/// the master's: a worker sends no heartbeat on its own, only answers to
/// the master's probes and, on a link it only receives on, one per probe
/// period; and a worker that refuses an LU pivot answers the `LuPanel`
/// task with an empty payload instead of dying. A v7 worker still dies
/// on such a pivot and a v7 master reads the refusal as a bad reply, so
/// a mixed fleet is refused at the hello.
pub const PROTOCOL_VERSION: u32 = 8;

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
    /// The fleet's membership epoch at enrollment. Bumped by the session
    /// on every `admit`/`prune_dead`, so it names the exact fleet
    /// generation this worker joined.
    pub epoch: u64,
}

/// How long each side of the enrollment handshake waits for the peer's
/// next frame. A connection that goes silent mid-handshake is dropped
/// after this — never allowed to park an accept loop forever.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Fixed-field length of a hello payload (layout unchanged since v2):
/// version (4) + epoch (8) + worker nonce (16) + MAC (32); fingerprint
/// bytes follow. A shorter payload can only come from a pre-v2 peer.
const HELLO_FIXED_LEN: usize = 4 + 8 + 16 + 32;
/// Byte offset of the MAC within a hello payload.
const HELLO_MAC_AT: usize = 4 + 8 + 16;
/// Exact length of a welcome payload (layout since v6): c, w, m,
/// time_scale, epoch (8 each) + MAC (32).
const WELCOME_WIRE_LEN: usize = 8 * 5 + 32;
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
        epoch: u64::from_le_bytes(p[32..40].try_into().expect("len checked")),
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

/// The error kind a `REJECT_*` code stands for, on both ends of the
/// wire: version mismatches are [`io::ErrorKind::Unsupported`], failed
/// authentication and stale epochs are
/// [`io::ErrorKind::PermissionDenied`], slot/fingerprint disputes are
/// [`io::ErrorKind::InvalidData`]. All of them are **permanent** — the
/// retry loop in [`enroll_with_retry`] gives up on them immediately.
fn reject_kind(code: u32) -> io::ErrorKind {
    match code {
        REJECT_VERSION => io::ErrorKind::Unsupported,
        REJECT_AUTH | REJECT_EPOCH => io::ErrorKind::PermissionDenied,
        _ => io::ErrorKind::InvalidData,
    }
}

/// Map a received [`REJECT`] frame to the error the worker surfaces.
pub fn reject_error(frame: &Frame) -> io::Error {
    let reason = String::from_utf8_lossy(&frame.payload);
    io::Error::new(reject_kind(frame.tag.j), format!("master rejected enrollment: {reason}"))
}

/// Master side: refuse the connection. The peer is told why, best-effort
/// (send failures are ignored — the connection is being torn down either
/// way), and the caller gets the error to return: the same kind the
/// rejected worker will surface.
fn refuse(stream: &mut dyn FrameStream, code: u32, reason: &str) -> io::Error {
    let _ = stream.send_frame(&reject_frame(code, reason));
    io::Error::new(reject_kind(code), format!("refused {}: {reason}", stream.peer()))
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
/// handshake read deadline (`timeout` — [`HANDSHAKE_TIMEOUT`] outside
/// tests) and send the protocol challenge. Returns the challenge nonce
/// the peer's hello must answer.
pub fn master_challenge(stream: &mut dyn FrameStream, timeout: Duration) -> io::Result<[u8; 16]> {
    stream.set_read_timeout(Some(timeout))?;
    let nonce = auth::fresh_nonce();
    stream.send_frame(&challenge_frame(&nonce))?;
    Ok(nonce)
}

/// Master side, step 2 of enrollment: read and vet the peer's hello.
/// Every session-independent admission gate lives here — protocol
/// structure and version, the HMAC against `challenge` under `secret`,
/// and the membership `epoch` (a hello may present epoch 0, "fresh
/// connection", or the current epoch; anything else is a stale
/// generation). A peer failing any gate is told why with a best-effort
/// [`REJECT`] frame and the error is returned; the caller drops the
/// connection and keeps accepting — one bad dialer must never wedge the
/// fleet's front door.
pub fn master_read_hello(
    stream: &mut dyn FrameStream,
    secret: &[u8],
    challenge: &[u8; 16],
    epoch: u64,
) -> io::Result<Hello> {
    let frame = expect_frame(stream.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN)?, "hello")?;
    // Wrong version *or* not a hello at all: either way the peer does not
    // speak this protocol revision. Degrade to a clean, named rejection —
    // never a decode panic.
    let hello = parse_hello(&frame).map_err(|e| {
        refuse(stream, REJECT_VERSION, &format!("unsupported handshake: {e}"))
    })?;
    if !hello_authentic(&frame, &hello, secret, challenge) {
        let reason = "hello MAC does not verify (wrong or missing fleet secret)";
        return Err(refuse(stream, REJECT_AUTH, reason));
    }
    if hello.epoch != 0 && hello.epoch != epoch {
        let reason = format!("membership epoch {} is stale (fleet is at {epoch})", hello.epoch);
        return Err(refuse(stream, REJECT_EPOCH, &reason));
    }
    Ok(hello)
}

/// What one master offers every connection it enrolls: the terms of
/// [`master_enroll`] that do not depend on which worker is dialing.
pub(crate) struct EnrollTerms<'a> {
    /// The deployment's configuration: its secret keys both handshake
    /// MACs, its liveness deadline times the new link and its probes.
    pub config: &'a Config,
    /// The fleet's current membership epoch: a hello presents 0 or this.
    pub epoch: u64,
    /// The epoch the welcome carries: `epoch` while a star assembles,
    /// `epoch + 1` for an admission (itself the membership change).
    pub welcome_epoch: u64,
    /// The pacing the new link is attached with.
    pub pacing: Pacing,
    /// Read deadline on the peer's handshake frames.
    pub handshake_timeout: Duration,
}

/// The master side of enrollment, whole: challenge the fresh connection,
/// vet its hello ([`master_read_hello`]), let `assign` — the caller's
/// slot/fingerprint policy — name the worker's slot and `(c, w, m)` terms
/// or refuse with a `REJECT_*` code and reason, send the welcome, await
/// the worker's confirming heartbeat, swap the
/// handshake read deadline for the liveness deadline, split the stream
/// and bridge it into a [`RemoteLink`]. Returns the assigned slot, the
/// fingerprint the hello presented, and the link.
///
/// An `Err` condemns only this connection (dropped on return, after a
/// best-effort [`REJECT`] naming the reason), never the caller's fleet.
/// The whole handshake runs on the unsplit stream under
/// `terms.handshake_timeout` and the handshake wire-length budget.
pub(crate) fn master_enroll(
    mut stream: Box<dyn FrameStream>,
    terms: &EnrollTerms<'_>,
    assign: impl FnOnce(&Hello) -> Result<(WorkerId, WorkerParams), (u32, String)>,
) -> io::Result<(WorkerId, Vec<u8>, RemoteLink)> {
    let challenge = master_challenge(stream.as_mut(), terms.handshake_timeout)?;
    let secret = &terms.config.fleet_secret;
    let hello = master_read_hello(stream.as_mut(), secret, &challenge, terms.epoch)?;
    let (id, params) =
        assign(&hello).map_err(|(code, reason)| refuse(stream.as_mut(), code, &reason))?;
    let welcome = Welcome {
        worker: id,
        c: params.c,
        w: params.w,
        m: params.m as u64,
        time_scale: terms.pacing.time_scale,
        epoch: terms.welcome_epoch,
    };
    stream.send_frame(&welcome_frame(&welcome, secret, &hello.nonce))?;
    // The worker confirms with a heartbeat: a peer that died before
    // reading the welcome fails here, not after taking a slot.
    let confirm = expect_frame(stream.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN)?, "confirming")?;
    if confirm.tag.kind != FrameKind::Heartbeat {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "the welcome was not confirmed"));
    }
    // Enrolled: swap the handshake deadline for the liveness deadline (or
    // clear it entirely when liveness is off — session workers park on
    // blocking reads by design). This runs **before** `split()` so the
    // cloned reader the in-pump blocks on inherits the deadline: a worker
    // that goes silent longer than the liveness deadline surfaces as a
    // timed-out read, which the pump turns into the link's death flag.
    // Idle-but-alive workers never trip it: they answer the out pump's
    // probes.
    stream.set_read_timeout(terms.config.liveness)?;
    let (reader, writer) = stream.split()?;
    let probe = terms.config.probe_period();
    let link = RemoteLink::attach(reader, writer, params.c, terms.pacing, id, probe);
    Ok((id, hello.fingerprint, link))
}

/// Worker-side enrollment (a worker process, or a loopback worker
/// thread): await the master's
/// challenge, answer with a hello MAC'd under `config`'s secret — claiming
/// `claim` or asking for any slot, presenting `epoch` as the believed
/// fleet generation — and build a socket-backed [`WorkerEndpoint`] from
/// the returned welcome (whose own MAC is verified: mutual
/// authentication), once a heartbeat has confirmed it. The endpoint
/// drives the exact same worker programs as the channel transport; see
/// [`crate::session::serve_worker`] for the outer loop.
///
/// The handshake runs on the unsplit stream under the
/// [`HANDSHAKE_TIMEOUT`] deadline and the [`MAX_HANDSHAKE_WIRE_LEN`]
/// budget — a silent or hostile "master" cannot park this worker forever
/// or feed it a giant allocation. The deadline is swapped for `config`'s
/// liveness deadline (checked — [`Config::check`] — and kept for the
/// endpoint's whole life) before the stream splits into the endpoint's
/// halves: the master's idle-link probes keep arriving even while this
/// worker is parked between runs, so only a dead or wedged master trips
/// it; with liveness off the link blocks indefinitely. The endpoint
/// answers those probes itself ([`WorkerEndpoint::recv`]).
///
/// `stream` may be any [`FrameStream`]: the worker binary's comes from
/// [`connect`], and a test can hand in one of its own (the chaos tests'
/// faulty stream is built on [`super::read_frame_from`] and
/// [`super::write_frames_to`]).
pub fn enroll_with(
    mut stream: Box<dyn FrameStream>,
    claim: Option<WorkerId>,
    fingerprint: &[u8],
    epoch: u64,
    config: &Config,
) -> io::Result<(WorkerEndpoint, Welcome)> {
    config.check().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let secret = &config.fleet_secret;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let challenge =
        parse_challenge(&expect_frame(stream.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN)?, "challenge")?)?;
    let hello =
        Hello { claimed: claim, epoch, nonce: auth::fresh_nonce(), fingerprint: fingerprint.to_vec() };
    stream.send_frame(&hello_frame(&hello, secret, &challenge))?;
    let reply = expect_frame(stream.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN)?, "welcome")?;
    if is_reject(&reply) {
        return Err(reject_error(&reply));
    }
    let welcome = parse_welcome(&reply, secret, &hello.nonce)?;
    stream.set_read_timeout(config.liveness)?;
    if let Some(claimed) = claim {
        if welcome.worker != claimed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("claimed slot {} but was welcomed as {}", claimed.index(), welcome.worker.index()),
            ));
        }
    }
    stream.send_frame(&Frame::heartbeat())?;
    let (reader, writer) = stream.split()?;
    Ok((WorkerEndpoint::remote(welcome.worker, reader, writer, config.probe_period()), welcome))
}

/// Dial + enroll with retries: the worker binary's whole connection
/// story in one call. **Transient** failures — the master's listener not
/// up yet, a connection refused/reset/aborted mid-churn, a not-yet-bound
/// Unix socket path, a peer that closed before answering — retry on the
/// jittered exponential [`Backoff`](super::Backoff) until `deadline`
/// elapses. Everything else fails **fast**: an authentication rejection,
/// a version mismatch, or a slot dispute will not change on retry, and
/// hammering the master's accept loop with doomed handshakes would only
/// hide the real error behind a timeout.
pub fn enroll_with_retry(
    endpoint: &str,
    deadline: Duration,
    claim: Option<WorkerId>,
    fingerprint: &[u8],
    config: &Config,
) -> io::Result<(WorkerEndpoint, Welcome)> {
    retry_transient(deadline, || {
        enroll_with(connect(endpoint)?, claim, fingerprint, 0, config)
    })
}
