use super::framing::HEADER_LEN;
use super::handshake::expect_frame;
use super::*;
use crate::auth;
use crate::config::{parse_millis, parse_transport_mode, Config};
use crate::frame::{Frame, FrameKind, Tag};
use crate::link::Pacing;
use crate::pool::BufferPool;
use bytes::Bytes;
use mwp_platform::WorkerId;
use std::io::{self, Read, Write};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

fn frame(kind: FrameKind, i: usize, j: usize, payload: &[u8]) -> Frame {
    Frame::new(Tag::new(kind, i, j), Bytes::from(payload.to_vec()))
}

/// A reader that hands out its bytes at most `chunk` at a time —
/// simulating TCP split reads, where one frame arrives across many
/// `read` calls.
struct SplitReader {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl Read for SplitReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Wire image of `frames`: with the CRC32C trailer (`checksum`, what
/// every socket link speaks) or trailer-less.
fn wire_of(frames: &[Frame], checksum: bool) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        write_frame_to(&mut out, f, checksum).unwrap();
    }
    out
}

/// Write `frames` and read them back through `chunk`-byte reads: exactly
/// the same frames, then a clean EOF.
fn assert_reads_back(frames: &[Frame], checksum: bool, chunk: usize) {
    let mut r = SplitReader { data: wire_of(frames, checksum), pos: 0, chunk };
    let pool = BufferPool::new();
    for f in frames {
        assert_eq!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, checksum).unwrap().as_ref(), Some(f));
    }
    assert!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, checksum).unwrap().is_none(), "clean EOF");
}

/// The error that reading one frame off `wire` must end in.
fn read_err(wire: Vec<u8>, checksum: bool) -> io::Error {
    let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
    read_frame_from(&mut r, &BufferPool::new(), MAX_WIRE_LEN, checksum).unwrap_err()
}

#[test]
fn framing_roundtrip_preserves_frames() {
    let frames = [
        frame(FrameKind::BlockB, 3, 17, &[1, 2, 3, 4]),
        frame(FrameKind::Control, 0, 0, &[]),
        Frame::shutdown(),
    ];
    assert_reads_back(&frames, false, usize::MAX);
}

#[test]
fn checksummed_framing_roundtrip_preserves_frames_and_run_tags() {
    let frames = [
        Frame::new_in_run(Tag::new(FrameKind::BlockB, 3, 17), 9, Bytes::from(vec![1, 2, 3, 4])),
        frame(FrameKind::Control, 0, 0, &[]),
        Frame::shutdown(),
    ];
    assert_reads_back(&frames, true, 1);
}

#[test]
fn any_flipped_bit_fails_the_checksum() {
    // A short frame, and one whose 613-byte image spans fold blocks, a
    // fold's leftover and the short tail after it.
    for payload in [vec![7u8; 48], payload_of(600)] {
        let f = Frame::new_in_run(Tag::new(FrameKind::CResult, 2, 5), 3, Bytes::from(payload));
        let clean = wire_of(std::slice::from_ref(&f), true);
        // Flip one bit at every position past the length prefix —
        // header, payload, and the trailer itself: every single one
        // must be detected, never delivered as a (wrong) frame.
        for at in 4..clean.len() {
            let mut wire = clean.clone();
            wire[at] ^= 0x10;
            assert_eq!(read_err(wire, true).kind(), io::ErrorKind::InvalidData, "flip at byte {at}");
        }
    }
}

/// `len` bytes of a fixed pseudo-random stream.
fn payload_of(len: usize) -> Vec<u8> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

#[test]
fn checksummed_frames_round_trip_at_every_fold_edge() {
    // Payload lengths 0..=1 100, both sides of larger block edges, and
    // LU's first panel frame, all written in one batch: the writer
    // checksums header and payload as two pieces, the reader the
    // image whole.
    let mut lens: Vec<usize> = (0..=1100).collect();
    lens.extend([255, 256, 257, 4095, 4096, 4097, 19_200 + 17, 65_536 + 13, 2_252_800 + 7]);
    let payload = payload_of(2_252_807);
    let frames: Vec<Frame> =
        lens.iter().enumerate().map(|(i, &len)| frame(FrameKind::BlockA, i, len, &payload[..len])).collect();
    let mut wire = Vec::new();
    write_frames_to(&mut wire, &frames, true).unwrap();
    let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
    let pool = BufferPool::new();
    for f in &frames {
        let back = read_frame_from(&mut r, &pool, MAX_WIRE_LEN, true).unwrap();
        assert_eq!(back.as_ref(), Some(f), "payload of {} bytes", f.tag.j);
    }
    assert!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, true).unwrap().is_none(), "clean EOF");
}

#[test]
fn corrupt_fault_flips_one_bit_the_checksum_catches_and_the_stream_survives() {
    // A frame with one payload bit flipped under the CRC of its clean
    // bytes, between two clean frames: the reader fails that frame on
    // its checksum and, since its length prefix is honest, reads the
    // next one whole. The blast radius of a flipped bit is one frame
    // (over a socket the link is condemned on the error anyway).
    let frames: Vec<Frame> = (0..3).map(|i| frame(FrameKind::BlockA, i, 0, &[6u8; 32])).collect();
    let mut wire = wire_of(&frames, true);
    let second = wire.len() / 3;
    wire[second + 4 + HEADER_LEN] ^= 0x01;
    let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
    let pool = BufferPool::new();
    let mut next = || read_frame_from(&mut r, &pool, MAX_WIRE_LEN, true);
    assert_eq!(next().unwrap().unwrap().tag.i, 0);
    let err = next().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("checksum"), "got: {err}");
    assert_eq!(next().unwrap().unwrap().tag.i, 2);
    assert!(next().unwrap().is_none(), "then a clean EOF");
}

#[test]
fn split_reads_reassemble_whole_frames() {
    // One byte per read() call: the framing layer must reassemble.
    let frames = [frame(FrameKind::BlockA, 9, 9, &[7u8; 100]), frame(FrameKind::CResult, 1, 2, &[8u8; 33])];
    assert_reads_back(&frames, false, 1);
}

#[test]
fn truncated_stream_is_an_error_not_a_hang() {
    for checksum in [false, true] {
        let wire = wire_of(&[frame(FrameKind::BlockB, 0, 0, &[5u8; 64])], checksum);
        // Cut at every interesting boundary: mid-prefix, mid-header
        // (both before and inside the run-generation field), and
        // mid-payload — plus, under the checksum format, inside the CRC
        // trailer itself.
        let mut cuts = vec![1, 3, 4 + 4, 4 + 10, 4 + 12, wire.len() - 1];
        if checksum {
            cuts.push(wire.len() - 3);
        }
        for cut in cuts {
            let err = read_err(wire[..cut].to_vec(), checksum);
            let what = format!("checksum {checksum}, cut at {cut}");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{what}");
        }
    }
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocating() {
    // 3 GiB length prefix: must be InvalidData, not an allocation.
    let mut wire = Vec::new();
    wire.extend_from_slice(&(3u32 << 30).to_le_bytes());
    wire.extend_from_slice(&[0u8; 32]);
    let err = read_err(wire, false);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("exceeds"), "got: {err}");
}

#[test]
fn undersized_length_prefix_is_rejected() {
    // A prefix shorter than the 13-byte header can never frame a
    // valid message; under the checksum format the floor is 17
    // (header + CRC trailer).
    for (floor, checksum) in [(13u32, false), (17, true)] {
        for len in 0..floor {
            let mut wire = Vec::new();
            wire.extend_from_slice(&len.to_le_bytes());
            wire.extend_from_slice(&vec![0u8; len as usize]);
            let err = read_err(wire, checksum);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "checksum {checksum}, len {len}");
        }
    }
}

#[test]
fn garbage_kind_tag_is_rejected() {
    let mut wire = wire_of(&[frame(FrameKind::BlockA, 1, 1, &[1, 2, 3])], false);
    wire[4] = 200; // corrupt the kind byte inside the framed image
    assert_eq!(read_err(wire, false).kind(), io::ErrorKind::InvalidData);
}

#[test]
fn received_payloads_reuse_pooled_buffers() {
    let wire = wire_of(&[frame(FrameKind::BlockB, 0, 0, &[9u8; 256])], false);
    let pool = BufferPool::new();
    let mut r = SplitReader { data: wire.clone(), pos: 0, chunk: usize::MAX };
    let f1 = read_frame_from(&mut r, &pool, MAX_WIRE_LEN, false).unwrap().unwrap();
    let first_ptr = f1.payload.as_ptr();
    drop(f1); // last view: the buffer returns to the pool
    assert_eq!(pool.idle_buffers(), 1);
    let mut r = SplitReader { data: wire, pos: 0, chunk: usize::MAX };
    let f2 = read_frame_from(&mut r, &pool, MAX_WIRE_LEN, false).unwrap().unwrap();
    // Second receive lands in the recycled storage (same backing
    // buffer, so same payload offset within it).
    assert_eq!(f2.payload.as_ptr(), first_ptr);
}

/// A sink that takes at most 7 bytes per call, from as many slices as
/// those bytes span: every batched write resumes mid-slice.
struct SevenBytesPerCall(Vec<u8>);

impl Write for SevenBytesPerCall {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[io::IoSlice::new(buf)])
    }
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        let before = self.0.len();
        for buf in bufs {
            let take = (7 - (self.0.len() - before)).min(buf.len());
            self.0.extend_from_slice(&buf[..take]);
        }
        Ok(self.0.len() - before)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_batch_beyond_iov_max_slices_reads_back_bit_exact_through_seven_byte_writes() {
    // 3 slices per frame: 450 frames are 1 350 slices, over Linux's
    // IOV_MAX of 1 024. Payload lengths vary, some are empty.
    let frames: Vec<Frame> = (0..450)
        .map(|i| {
            let payload: Vec<u8> = (0..i % 37).map(|b| (b * 7 + i) as u8).collect();
            Frame::new_in_run(Tag::new(FrameKind::BlockB, i, i % 5), i as u32, Bytes::from(payload))
        })
        .collect();
    for checksum in [false, true] {
        let mut sink = SevenBytesPerCall(Vec::new());
        write_frames_to(&mut sink, &frames, checksum).unwrap();
        assert_eq!(sink.0, wire_of(&frames, checksum), "checksum {checksum}: the per-frame image");
        let mut r = SplitReader { data: sink.0, pos: 0, chunk: usize::MAX };
        let pool = BufferPool::new();
        for f in &frames {
            assert_eq!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, checksum).unwrap().as_ref(), Some(f));
        }
        assert!(read_frame_from(&mut r, &pool, MAX_WIRE_LEN, checksum).unwrap().is_none());
    }
}

#[test]
fn a_batch_with_an_oversized_frame_fails_before_writing_it() {
    // Zeroed and never read, so the pages of this payload are never
    // touched: the cap is checked on its length alone.
    let oversized = vec![0u8; MAX_WIRE_LEN - HEADER_LEN - 4 + 1];
    let frames =
        [frame(FrameKind::BlockA, 0, 0, &[1, 2, 3]), Frame::new(Tag::new(FrameKind::BlockB, 1, 0), Bytes::from(oversized))];
    let mut sink = Vec::new();
    let err = write_frames_to(&mut sink, &frames, true).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("exceeds"), "got: {err}");
    assert!(sink.is_empty(), "no byte of the batch was written, {} were", sink.len());
}

/// A welcome for slot `worker` at membership `epoch`, every other field a
/// distinct value (so a roundtrip that swaps two fields cannot pass).
fn welcome(worker: usize, epoch: u64) -> Welcome {
    Welcome {
        worker: WorkerId(worker),
        c: 4.0,
        w: 1.5,
        m: 60,
        time_scale: 0.25,
        epoch,
    }
}

#[test]
fn hello_welcome_roundtrip() {
    let secret = b"roundtrip-secret";
    let challenge = auth::fresh_nonce();
    let h1 = Hello {
        epoch: 7,
        nonce: auth::fresh_nonce(),
        fingerprint: b"fp".to_vec(),
    };
    let f1 = hello_frame(&h1, secret, &challenge);
    let parsed = parse_hello(&f1).unwrap();
    assert_eq!(parsed, h1);
    assert!(hello_authentic(&f1, &parsed, secret, &challenge));
    let h2 = Hello { epoch: 0, nonce: auth::fresh_nonce(), fingerprint: vec![] };
    let f2 = hello_frame(&h2, secret, &challenge);
    let parsed2 = parse_hello(&f2).unwrap();
    assert_eq!(parsed2, h2);
    assert!(hello_authentic(&f2, &parsed2, secret, &challenge));
    let welcome = welcome(2, 7);
    let wf = welcome_frame(&welcome, secret, &h1.nonce);
    let back = parse_welcome(&wf, secret, &h1.nonce).unwrap();
    assert_eq!(back, welcome);
}

#[test]
fn handshake_rejects_wrong_frame() {
    assert!(parse_hello(&Frame::shutdown()).is_err());
    assert!(parse_challenge(&Frame::shutdown()).is_err());
}

#[test]
fn challenge_roundtrip_and_version_gate() {
    let nonce = auth::fresh_nonce();
    assert_eq!(parse_challenge(&challenge_frame(&nonce)).unwrap(), nonce);
    // A master speaking any other protocol version is refused with
    // Unsupported — a clean degrade, not a decode panic.
    let mut alien = challenge_frame(&nonce);
    alien.tag.j = PROTOCOL_VERSION + 1;
    assert_eq!(parse_challenge(&alien).unwrap_err().kind(), io::ErrorKind::Unsupported);
}

#[test]
fn hello_from_another_protocol_version_is_unsupported_not_corrupt() {
    let secret = b"s";
    let challenge = auth::fresh_nonce();
    let hello =
        Hello { epoch: 0, nonce: auth::fresh_nonce(), fingerprint: vec![] };
    // Version field rewritten: parse must classify it as a foreign
    // protocol revision.
    let good = hello_frame(&hello, secret, &challenge);
    let mut payload = good.payload.to_vec();
    payload[0..4].copy_from_slice(&1u32.to_le_bytes());
    let v1 = Frame::new(good.tag, Bytes::from(payload));
    assert_eq!(parse_hello(&v1).unwrap_err().kind(), io::ErrorKind::Unsupported);
    // A pre-versioning hello (short payload — the v1 wire format was
    // just fingerprint bytes) classifies the same way.
    let legacy = Frame::new(
        Tag { kind: FrameKind::Control, i: HELLO, j: 0 },
        Bytes::from(b"fp".to_vec()),
    );
    assert_eq!(parse_hello(&legacy).unwrap_err().kind(), io::ErrorKind::Unsupported);
}

/// A peer from the previous protocol revision — structurally valid
/// hello, version field and all — must be turned away with the coded
/// [`REJECT_VERSION`], not a decode error: a v5 build would misparse
/// the service-byte-free welcome, so the door is where it has to stop.
#[test]
fn previous_version_peer_is_rejected_with_a_version_code() {
    let secret = b"version-gate-secret";
    let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
    let endpoint = listener.endpoint();
    let master = thread::spawn(move || {
        let mut conn = listener.accept().unwrap();
        let err = master_challenge(conn.as_mut(), HANDSHAKE_TIMEOUT)
            .and_then(|ch| master_read_hello(conn.as_mut(), secret, &ch, 1).map(|_| ()))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    });
    let mut conn = connect_with_retry(&endpoint, Duration::from_secs(5)).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let challenge =
        parse_challenge(&expect_frame(conn.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN).unwrap(), "challenge").unwrap())
            .unwrap();
    let hello = Hello { epoch: 0, nonce: auth::fresh_nonce(), fingerprint: vec![] };
    let good = hello_frame(&hello, secret, &challenge);
    let mut payload = good.payload.to_vec();
    payload[0..4].copy_from_slice(&(PROTOCOL_VERSION - 1).to_le_bytes());
    conn.send_frame(&Frame::new(good.tag, Bytes::from(payload))).unwrap();
    let reply = expect_frame(conn.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN).unwrap(), "reject").unwrap();
    assert!(is_reject(&reply), "expected a reject frame, got {:?}", reply.tag);
    assert_eq!(reply.tag.j, REJECT_VERSION, "the rejection must carry the version code");
    assert_eq!(reject_error(&reply).kind(), io::ErrorKind::Unsupported);
    master.join().unwrap();
}

#[test]
fn wrong_secret_fails_both_mac_directions() {
    let challenge = auth::fresh_nonce();
    let hello = Hello {
        epoch: 0,
        nonce: auth::fresh_nonce(),
        fingerprint: b"x".to_vec(),
    };
    let f = hello_frame(&hello, b"worker-secret", &challenge);
    let parsed = parse_hello(&f).unwrap();
    assert!(!hello_authentic(&f, &parsed, b"master-secret", &challenge));
    // And a tampered field breaks the MAC even under the right secret.
    let mut tampered = f.payload.to_vec();
    *tampered.last_mut().unwrap() ^= 1; // flip a fingerprint bit
    let tf = Frame::new(f.tag, Bytes::from(tampered));
    let tp = parse_hello(&tf).unwrap();
    assert!(!hello_authentic(&tf, &tp, b"worker-secret", &challenge));
    let welcome = welcome(0, 1);
    let wf = welcome_frame(&welcome, b"master-secret", &hello.nonce);
    let err = parse_welcome(&wf, b"worker-secret", &hello.nonce).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    // Replaying a welcome MAC'd for another enrollment's nonce fails.
    let other_nonce = auth::fresh_nonce();
    let err = parse_welcome(&wf, b"master-secret", &other_nonce).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
}

#[test]
fn reject_frames_map_to_the_right_error_kinds() {
    for (code, kind) in [
        (REJECT_VERSION, io::ErrorKind::Unsupported),
        (REJECT_AUTH, io::ErrorKind::PermissionDenied),
        (REJECT_EPOCH, io::ErrorKind::PermissionDenied),
        // A code this build does not know.
        (REJECT_EPOCH + 1, io::ErrorKind::InvalidData),
    ] {
        let f = reject_frame(code, "nope");
        assert!(is_reject(&f));
        let e = reject_error(&f);
        assert_eq!(e.kind(), kind, "code {code}");
        assert!(e.to_string().contains("nope"));
    }
}

/// The full master/worker handshake over a real socket, plus every
/// rejection path — and the master keeps accepting after each one.
#[test]
fn enrollment_round_rejects_impostors_and_admits_the_fleet() {
    let secret = b"fleet-secret";
    let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
    let endpoint = listener.endpoint();
    let master = thread::spawn(move || {
        let mut outcomes = Vec::new();
        // Serve four dialers; only the last is legitimate.
        for _ in 0..4 {
            let mut conn = listener.accept().unwrap();
            let outcome = master_challenge(conn.as_mut(), HANDSHAKE_TIMEOUT)
                .and_then(|ch| master_read_hello(conn.as_mut(), secret, &ch, 5))
                .map(|hello| {
                    conn.send_frame(&welcome_frame(&welcome(0, 5), secret, &hello.nonce)).unwrap();
                });
            outcomes.push(outcome.map_err(|e| e.kind()));
        }
        outcomes
    });
    let dial = || connect_with_retry(&endpoint, Duration::from_secs(5)).unwrap();
    // 1: wrong secret.
    let fleet = |secret: &[u8]| Config { fleet_secret: secret.to_vec(), ..Config::default() };
    let err = enroll_with(dial(), b"", 0, &fleet(b"not-the-secret"))
        .err()
        .expect("wrong secret must be rejected");
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    // 2: stale epoch.
    let err =
        enroll_with(dial(), b"", 4, &fleet(secret)).err().expect("stale epoch rejected");
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    assert!(err.to_string().contains("stale"), "got: {err}");
    // 3: does not even speak the protocol: it answers the challenge with
    // a frame that is not a hello.
    let mut stream = dial();
    let challenge = stream.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN).unwrap().unwrap();
    parse_challenge(&challenge).unwrap();
    stream.send_frame(&Frame::shutdown()).unwrap();
    let reply = stream.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN).unwrap().unwrap();
    assert!(is_reject(&reply), "a non-hello is answered with a rejection");
    assert_eq!(reject_error(&reply).kind(), io::ErrorKind::Unsupported);
    // 4: the real fleet member — current epoch, right secret.
    let (ep, welcome) = enroll_with(dial(), b"fp", 5, &fleet(secret)).unwrap();
    assert_eq!(welcome.epoch, 5);
    assert_eq!(welcome.worker, WorkerId(0));
    drop(ep);
    let outcomes = master.join().unwrap();
    assert_eq!(outcomes[0], Err(io::ErrorKind::PermissionDenied));
    assert_eq!(outcomes[1], Err(io::ErrorKind::PermissionDenied));
    assert_eq!(outcomes[2], Err(io::ErrorKind::Unsupported));
    assert!(outcomes[3].is_ok(), "the legitimate worker enrolls after three rejections");
}

/// A version rejection must fail fast — not burn the whole dial
/// deadline in backoff like a refused connection does.
#[test]
fn enroll_with_retry_fails_fast_on_rejection() {
    let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
    let endpoint = listener.endpoint();
    let master = thread::spawn(move || {
        // A master from a different protocol era: its challenge
        // carries a version this build does not speak.
        let mut conn = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut alien = challenge_frame(&auth::fresh_nonce());
        alien.tag.j = PROTOCOL_VERSION + 1;
        conn.send_frame(&alien).unwrap();
        // Hold the connection open until the worker walks away.
        let _ = conn.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN);
    });
    let t0 = std::time::Instant::now();
    let err = enroll_with_retry(&endpoint, Duration::from_secs(30), b"", &Config::default())
        .err()
        .expect("version mismatch must be an error");
    assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "a permanent rejection must not be retried until the 30s deadline"
    );
    master.join().unwrap();
}

#[test]
fn transport_mode_parser_is_strict() {
    assert_eq!(parse_transport_mode("channel"), Ok(TransportMode::Channel));
    assert_eq!(parse_transport_mode("tcp"), Ok(TransportMode::Tcp));
    assert_eq!(parse_transport_mode("uds"), Ok(TransportMode::Uds));
    let err = parse_transport_mode("pigeon").unwrap_err();
    for name in ["channel", "tcp", "uds"] {
        assert!(err.contains(name), "error must list '{name}': {err}");
    }
    assert!(parse_transport_mode("").is_err(), "no transport named is not a transport");
}

#[test]
fn tcp_stream_carries_frames_both_ways() {
    let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
    let endpoint = listener.endpoint();
    let h = thread::spawn(move || {
        let stream = connect(&endpoint).unwrap();
        let (mut r, mut w) = stream.split().unwrap();
        // Echo one frame back with a changed tag.
        let f = r.recv_frame().unwrap().unwrap();
        w.send_frame(&Frame::new(Tag::new(FrameKind::CResult, 7, 7), f.payload)).unwrap();
    });
    let conn = listener.accept().unwrap();
    let (mut r, mut w) = conn.split().unwrap();
    w.send_frame(&frame(FrameKind::BlockA, 1, 2, &[1, 2, 3])).unwrap();
    let back = r.recv_frame().unwrap().unwrap();
    assert_eq!(back.tag, Tag::new(FrameKind::CResult, 7, 7));
    assert_eq!(&back.payload[..], &[1, 2, 3]);
    assert!(r.recv_frame().unwrap().is_none(), "peer closed cleanly");
    h.join().unwrap();
}

/// A Unix socket path under the system temp directory that only the
/// calling test thread uses: each thread binds one listener at a time,
/// and the listener unlinks the path on drop.
#[cfg(unix)]
fn thread_socket_path() -> std::path::PathBuf {
    let thread = format!("{:?}", thread::current().id()).replace(|c: char| !c.is_ascii_digit(), "");
    std::env::temp_dir().join(format!("mwp-test-{}-{thread}.sock", std::process::id()))
}

#[cfg(unix)]
#[test]
fn uds_stream_carries_frames_and_unlinks_its_path() {
    let path = thread_socket_path();
    let listener = TransportListener::bind_uds(&path).unwrap();
    let endpoint = listener.endpoint();
    let h = thread::spawn(move || {
        let stream = connect(&endpoint).unwrap();
        let (mut r, mut w) = stream.split().unwrap();
        let f = r.recv_frame().unwrap().unwrap();
        w.send_frame(&f).unwrap();
    });
    let conn = listener.accept().unwrap();
    let (mut r, mut w) = conn.split().unwrap();
    let sent = frame(FrameKind::LuPanel, 3, 0, &[9u8; 40]);
    w.send_frame(&sent).unwrap();
    assert_eq!(r.recv_frame().unwrap().unwrap(), sent);
    h.join().unwrap();
    assert!(path.exists());
    drop((r, w, listener));
    assert!(!path.exists(), "socket path must be unlinked on drop");
}

/// The socket families the stream tests run over: one stream type, two
/// raw sockets.
#[cfg(unix)]
const SOCKET_MODES: [TransportMode; 2] = [TransportMode::Tcp, TransportMode::Uds];
#[cfg(not(unix))]
const SOCKET_MODES: [TransportMode; 1] = [TransportMode::Tcp];

/// A dialed stream and the accepted end of it over `mode`, the accepted
/// end with a read deadline so a lost frame fails the test instead of
/// hanging it.
fn socket_pair(mode: TransportMode) -> (Box<dyn FrameStream>, Box<dyn FrameStream>) {
    let listener = match mode {
        #[cfg(unix)]
        TransportMode::Uds => TransportListener::bind_uds(thread_socket_path()),
        _ => TransportListener::bind_tcp("127.0.0.1:0"),
    }
    .unwrap();
    let dialer = connect(&listener.endpoint()).unwrap();
    let accepted = listener.accept().unwrap();
    accepted.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    (dialer, accepted)
}

/// The pair a session wires an in-process worker with is one checksummed
/// socket stream at each end: frames cross both ways, over both socket
/// families, and closing one end is the other's EOF.
#[test]
fn a_stream_pair_carries_frames_both_ways() {
    for mode in SOCKET_MODES {
        let (master, worker) = stream_pair(mode).unwrap();
        master.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        worker.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ((mut master_r, mut master_w), (mut worker_r, mut worker_w)) =
            (master.split().unwrap(), worker.split().unwrap());
        let task = frame(FrameKind::BlockA, 1, 2, &[1u8; 300]);
        master_w.send_frame(&task).unwrap();
        assert_eq!(worker_r.recv_frame().unwrap().as_ref(), Some(&task), "{mode:?}");
        let reply = frame(FrameKind::CResult, 3, 4, &[2u8; 40]);
        worker_w.send_frame(&reply).unwrap();
        assert_eq!(master_r.recv_frame().unwrap().as_ref(), Some(&reply), "{mode:?}");
        drop((worker_r, worker_w));
        assert!(master_r.recv_frame().unwrap().is_none(), "{mode:?}: the worker end closed");
    }
    assert_eq!(stream_pair(TransportMode::Channel).err().map(|e| e.kind()), Some(io::ErrorKind::InvalidInput));
}

/// A TCP pair is made through a listener someone else may dial too: a
/// connection a stranger queued first is dropped, not paired.
#[test]
fn a_tcp_pair_leaves_a_strangers_queued_connection_unpaired() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mut stranger = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, dialed) = super::socket::tcp_pair(&listener).unwrap();
    assert_eq!(accepted.peer_addr().unwrap(), dialed.local_addr().unwrap());
    assert_ne!(accepted.peer_addr().unwrap(), stranger.local_addr().unwrap());
    stranger.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(stranger.read(&mut [0u8; 1]).unwrap(), 0, "the stranger is hung up on");
}

#[test]
fn frames_a_peer_sent_behind_its_reply_survive_the_split() {
    let sent = [
        frame(FrameKind::Control, 1, 0, &[7u8; 24]),
        frame(FrameKind::BlockA, 2, 3, &[1u8; 300]),
        frame(FrameKind::BlockB, 4, 5, &[2u8; 40]),
    ];
    for mode in SOCKET_MODES {
        // The reply is read on the unsplit stream, whose buffer takes in
        // the data frames behind it; the split must hand them on.
        let (mut peer, mut conn) = socket_pair(mode);
        peer.send_frames(&sent).unwrap();
        assert_eq!(conn.recv_frame_capped(MAX_HANDSHAKE_WIRE_LEN).unwrap().as_ref(), Some(&sent[0]));
        let (mut r, _w) = conn.split().unwrap();
        for f in &sent[1..] {
            assert_eq!(r.recv_frame().unwrap().as_ref(), Some(f), "{mode:?}");
        }
        // All three arrive before the split: the read half delivers them.
        let (mut peer, conn) = socket_pair(mode);
        peer.send_frames(&sent).unwrap();
        let (mut r, _w) = conn.split().unwrap();
        for f in &sent {
            assert_eq!(r.recv_frame().unwrap().as_ref(), Some(f), "{mode:?}");
        }
    }
}

#[test]
fn the_read_deadline_fires_after_the_buffered_frames_are_delivered() {
    let deadline = Duration::from_millis(200);
    for mode in SOCKET_MODES {
        let (mut peer, conn) = socket_pair(mode);
        conn.set_read_timeout(Some(deadline)).unwrap();
        let (mut r, _w) = conn.split().unwrap();
        // One write of three frames, then a peer that stays connected
        // and says nothing more.
        let sent: Vec<Frame> = (0..3).map(|i| frame(FrameKind::CResult, i, 0, &[i as u8; 64])).collect();
        peer.send_frames(&sent).unwrap();
        for f in &sent {
            assert_eq!(r.recv_frame().unwrap().as_ref(), Some(f), "{mode:?}");
        }
        let start = Instant::now();
        let err = r.recv_frame().expect_err("silence past the deadline is an error");
        assert!(
            matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "{mode:?}: {err}"
        );
        assert!(start.elapsed() >= deadline / 2, "{mode:?}: the deadline fired early");
        drop(peer);
    }
}

#[test]
fn remote_link_bridges_a_socket_to_master_side_semantics() {
    let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
    let endpoint = listener.endpoint();
    // "Remote worker": echo frames until shutdown.
    let h = thread::spawn(move || {
        let stream = connect(&endpoint).unwrap();
        let (mut r, mut w) = stream.split().unwrap();
        while let Some(f) = r.recv_frame().unwrap() {
            if f.tag.kind == FrameKind::Shutdown {
                break;
            }
            let _ = w.send_frame(&Frame::new(Tag::new(FrameKind::CResult, f.tag.i as usize, 0), f.payload));
        }
    });
    let conn = listener.accept().unwrap();
    let (reader, writer) = conn.split().unwrap();
    let link = RemoteLink::attach(reader, writer, 2.0, Pacing::OFF, WorkerId(0), None);
    let (side, pumps) = link.into_parts();
    let cost = side.send(frame(FrameKind::BlockA, 5, 0, &[1u8; 16]), 2);
    assert_eq!(cost, Some(4.0), "the master side prices the transfer");
    let back = side.recv_wait_run(0, Some(Duration::from_secs(10))).unwrap();
    assert_eq!(back.tag.i, 5);
    assert_eq!(side.pace(2), 4.0, "the master side prices the reply");
    side.send(Frame::shutdown(), 0).unwrap();
    for p in pumps {
        p.join().unwrap();
    }
    h.join().unwrap();
}

/// A write half that reports each frame's kind to the test, in order.
struct KindTap(mpsc::Sender<FrameKind>);

impl FrameWrite for KindTap {
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        let _ = self.0.send(frame.tag.kind);
        Ok(())
    }
}

/// The read half of a worker that never speaks; EOF once the test drops
/// its sender.
struct SilentUntilHangup(mpsc::Receiver<()>);

impl FrameRead for SilentUntilHangup {
    fn recv_frame(&mut self) -> io::Result<Option<Frame>> {
        let _ = self.0.recv();
        Ok(None)
    }
}

/// Heartbeats cost a busy link nothing because the out pump probes only
/// after a whole interval with no frame to forward. Margins are for a
/// loaded 2-core runner: 5 ms between frames against a 200 ms interval,
/// and 5 s for the idle probe to show up.
#[test]
fn out_pump_probes_only_an_idle_link() {
    let interval = Duration::from_millis(200);
    let (tap_tx, tap) = mpsc::channel();
    let (hangup, silent) = mpsc::channel();
    let link = RemoteLink::attach(
        Box::new(SilentUntilHangup(silent)),
        Box::new(KindTap(tap_tx)),
        1.0,
        Pacing::OFF,
        WorkerId(0),
        Some(interval),
    );
    let (side, pumps) = link.into_parts();

    // Busy for three intervals: nothing but the master's frames goes out.
    let busy_until = Instant::now() + 3 * interval;
    let mut sent = 0;
    while Instant::now() < busy_until {
        side.send(frame(FrameKind::BlockA, sent, 0, &[0u8; 8]), 0);
        sent += 1;
        thread::sleep(Duration::from_millis(5));
    }
    let mut forwarded = 0;
    for kind in tap.try_iter() {
        assert_eq!(kind, FrameKind::BlockA, "a busy link was probed after {forwarded} frames");
        forwarded += 1;
    }

    // Silent: the next thing on the wire (after a last frame the pump
    // may still have been forwarding) is a probe.
    let after_silence = loop {
        match tap.recv_timeout(Duration::from_secs(5)).expect("an idle link must be probed") {
            FrameKind::BlockA => forwarded += 1,
            kind => break kind,
        }
    };
    assert_eq!(after_silence, FrameKind::Heartbeat);
    assert_eq!(forwarded, sent, "every frame sent before the silence was forwarded");

    side.send(Frame::shutdown(), 0);
    drop(hangup);
    for p in pumps {
        p.join().unwrap();
    }
}

#[test]
fn millis_parser_is_strict() {
    assert_eq!(parse_millis(""), Ok(None));
    assert_eq!(parse_millis("  "), Ok(None));
    assert_eq!(parse_millis("0"), Ok(Some(0)));
    assert_eq!(parse_millis("2500"), Ok(Some(2500)));
    assert_eq!(parse_millis(" 75 "), Ok(Some(75)));
    for bad in ["1.5", "-1", "1s", "fast", "1_000"] {
        assert!(parse_millis(bad).is_err(), "'{bad}' must be rejected, not defaulted");
    }
}

/// The backoff schedule over an injected clock: no sleeping, fully
/// deterministic for a fixed seed.
#[test]
fn backoff_doubles_within_jitter_bounds_and_honors_the_deadline() {
    let base = Duration::from_millis(10);
    let max = Duration::from_millis(80);
    let deadline = Duration::from_secs(100);
    let mut backoff = Backoff::new(base, max, deadline, 42);
    let mut nominal = base;
    // Attempt k's delay is jittered to 50–100% of the nominal,
    // which doubles up to `max` and then stays there.
    for attempt in 0..8 {
        let d = backoff.next_delay(Duration::ZERO).expect("deadline far away");
        assert!(
            d >= nominal.mul_f64(0.5) && d <= nominal,
            "attempt {attempt}: delay {d:?} outside [50%, 100%] of nominal {nominal:?}"
        );
        nominal = (nominal * 2).min(max);
    }
    // Same seed ⇒ same schedule, different seed ⇒ (almost surely)
    // a different one: the jitter decorrelates a worker herd.
    let delays = |seed: u64| -> Vec<Duration> {
        let mut b = Backoff::new(base, max, deadline, seed);
        (0..6).map(|_| b.next_delay(Duration::ZERO).unwrap()).collect()
    };
    assert_eq!(delays(7), delays(7), "fixed seed ⇒ deterministic schedule");
    assert_ne!(delays(7), delays(8), "different seeds ⇒ decorrelated schedules");
}

#[test]
fn backoff_clips_to_the_deadline_then_expires() {
    let mut backoff = Backoff::new(
        Duration::from_millis(100),
        Duration::from_millis(100),
        Duration::from_millis(250),
        1,
    );
    // 240 ms elapsed of a 250 ms budget: whatever the jitter says,
    // the issued delay never overshoots the remaining 10 ms.
    let d = backoff.next_delay(Duration::from_millis(240)).unwrap();
    assert!(d <= Duration::from_millis(10), "delay {d:?} overshoots the deadline");
    // At (or past) the deadline the schedule is exhausted.
    assert_eq!(backoff.next_delay(Duration::from_millis(250)), None);
    assert_eq!(backoff.next_delay(Duration::from_secs(1)), None);
}
