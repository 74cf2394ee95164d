//! Out-of-process end-to-end: real `mwp-worker` processes dial a master
//! in this test process over loopback TCP, enroll, and serve runs whose
//! results must be **bit-identical** to the in-process channel
//! transport's — the strongest statement that the socket backend forked
//! no compute path. Each worker process serves several consecutive
//! pooled-session runs over one connection, so the session protocol's
//! park/wake cycle is exercised across a process boundary too.
//!
//! A worker process computes with the fastest kernel its CPU runs, and so
//! does the in-process reference fleet on the same machine (a star mixing
//! `scalar` with a SIMD kernel computes different bits, which a real
//! deployment surfaces via [`RuntimeSession::worker_fingerprints`]; `avx2`
//! and `avx512` workers agree bit for bit).
//! The fleet's own settings are not ambient: the masters accept under a
//! literal `Config` and the workers are handed its secret (`common`) — and,
//! in the tracing test, a trace file each.

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::Partition;
use mwp_core::schedule::{PortOp, Schedule};
use mwp_core::session::RuntimeSession;
use mwp_core::MemoryLayout;
use mwp_lu::runtime::factor;
use mwp_lu::schedule::{lu_schedule, LuOp};
use mwp_msg::transport::TransportListener;
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerId};
use mwp_trace::{chrome, ActivityKind, Resource};
use std::collections::BTreeSet;
use std::process::Child;

mod common;
use common::{fleet, reap};

/// Launch `n` worker processes dialing `endpoint`.
fn spawn_workers(n: usize, endpoint: &str) -> Vec<Child> {
    (0..n).map(|_| common::spawn_worker(endpoint)).collect()
}

#[test]
fn remote_workers_serve_consecutive_holm_runs_bit_identically() {
    let platform = Platform::homogeneous(3, 4.0, 1.0, 60).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let children = spawn_workers(platform.len(), &listener.endpoint());
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();

    // Every enrollment carried the worker binary's fingerprint.
    for fp in remote.worker_fingerprints() {
        let fp = String::from_utf8_lossy(fp);
        assert!(fp.starts_with("mwp-worker/"), "unexpected fingerprint: {fp}");
    }

    // The reference star: in-process channel workers.
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    // Three consecutive runs over the same connections, with a block-side
    // change in the middle (the remote workers' in-place scratch reset).
    for (round, q) in [(0u64, 8usize), (1, 8), (2, 5)] {
        let a = random_matrix(5, 7, q, 901 + round);
        let b = random_matrix(7, 9, q, 911 + round);
        let c0 = random_matrix(5, 9, q, 921 + round);
        let over_socket = remote.run_holm(&a, &b, c0.clone()).unwrap();
        let over_channel = local.run_holm(&a, &b, c0).unwrap();
        assert_eq!(
            over_socket.c.max_abs_diff(&over_channel.c),
            0.0,
            "round {round} (q = {q}): socket and channel results must be bit-identical"
        );
        assert_eq!(over_socket.blocks_moved, over_channel.blocks_moved, "round {round}");
        assert_eq!(over_socket.workers_used, over_channel.workers_used, "round {round}");
    }

    local.shutdown();
    remote.shutdown();
    reap(children);
}

#[test]
fn remote_workers_serve_lu_runs_bit_identically() {
    // One fleet, one worker program: the same connections serve
    // factorizations with a product run between them.
    let platform = Platform::homogeneous(2, 1.0, 1.0, 1000).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let children = spawn_workers(platform.len(), &listener.endpoint());
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
    let local = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Channel);

    for (round, (r, q)) in [(0u64, (4usize, 6usize)), (1, (3, 5))] {
        let matrix = random_diagonally_dominant(r, q, 301 + round);
        let over_socket = factor(&remote, &matrix, 2);
        let over_channel = factor(&local, &matrix, 2);
        assert_eq!(
            over_socket.packed.max_abs_diff(&over_channel.packed),
            0.0,
            "round {round}: socket and channel factors must be bit-identical"
        );
        assert_eq!(over_socket.messages, over_channel.messages, "round {round}");
        let (a, b, c0) = (random_matrix(3, 4, q, 311), random_matrix(4, 5, q, 312), random_matrix(3, 5, q, 313));
        let over_socket = remote.run_all_workers(&a, &b, c0.clone()).unwrap();
        let over_channel = local.run_all_workers(&a, &b, c0).unwrap();
        assert_eq!(over_socket.c.max_abs_diff(&over_channel.c), 0.0, "round {round}: the product between");
    }

    local.shutdown();
    remote.shutdown();
    reap(children);
}

#[test]
fn dropping_a_remote_session_shuts_workers_down() {
    // Drop without an explicit shutdown: the session teardown must still
    // deliver shutdown frames so the worker processes exit 0 (a leak
    // here would hang `reap`, failing via test timeout).
    let platform = Platform::homogeneous(2, 4.0, 1.0, 60).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let children = spawn_workers(platform.len(), &listener.endpoint());
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
    let q = 4;
    let a = random_matrix(3, 3, q, 1);
    let b = random_matrix(3, 3, q, 2);
    let c0 = random_matrix(3, 3, q, 3);
    remote.run_holm(&a, &b, c0).unwrap();
    drop(remote);
    reap(children);
}

/// Checks one line of a streamed trace file — a `chrome::event_json`
/// object, then a comma — and returns its `cat` and `tid`.
fn cat_and_tid(line: &str) -> (&str, u64) {
    let event = line.strip_prefix(r#"{"name":""#).and_then(|l| l.strip_suffix("}},"));
    let (_, event) = event.and_then(|e| e.split_once(r#"","cat":""#)).unwrap_or_else(|| panic!("{line}"));
    let (cat, numbers) = event.split_once(r#"","ph":"X","#).unwrap_or_else(|| panic!("{line}"));
    let numbers = numbers.replacen(r#""args":{"#, "", 1);
    let fields: Vec<(&str, f64)> =
        numbers.split(',').filter_map(|f| f.split_once(':').and_then(|(k, v)| Some((k, v.parse().ok()?)))).collect();
    let keys: Vec<&str> = fields.iter().map(|f| f.0.trim_matches('"')).collect();
    assert_eq!(keys, ["ts", "dur", "pid", "tid", "start_s", "end_s", "bytes", "run", "peer"], "{line}");
    assert_eq!(fields[2].1, 1.0, "{line}");
    (cat, fields[3].1 as u64)
}

/// `MWP_TRACE` in worker processes: two `mwp-worker`s, each streaming to a
/// file of its own, serve an LU run and then a HoLM run over TCP. After
/// shutdown each file is `[` and then one event line per span, and holds
/// exactly its worker's `Compute` spans, counted off the two runs'
/// schedules — the flush at every run close and the `sync` at shutdown
/// put each one on disk before the process exits.
#[test]
fn traced_worker_processes_stream_their_compute_spans() {
    let platform = Platform::homogeneous(2, 1.0, 4.0, 60).unwrap();
    let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
    let paths: Vec<_> = (0..2)
        .map(|i| std::env::temp_dir().join(format!("mwp-worker-trace-{}-{i}.json", std::process::id())))
        .collect();
    let children = paths
        .iter()
        .map(|path| {
            let _ = std::fs::remove_file(path);
            let mut worker = common::worker_command(&listener.endpoint());
            worker.env("MWP_TRACE", format!("json:{}", path.display())).spawn().expect("spawn mwp-worker")
        })
        .collect();
    let remote = RuntimeSession::accept_remote(&platform, 0.0, &listener, &fleet()).unwrap();
    // The product runs last and streams the most spans, so its batch is
    // the one the shutdown's `sync` must wait for.
    let (q, (r, t, s), (n, mu)) = (4, (32, 16, 32), (5, 2));
    assert!(!factor(&remote, &random_diagonally_dominant(n, q, 344), mu).aborted);
    let (a, b, c0) = (random_matrix(r, t, q, 341), random_matrix(t, s, q, 342), random_matrix(r, s, q, 343));
    let holm = remote.run_holm(&a, &b, c0).unwrap();
    remote.shutdown();
    reap(children);

    // One `Compute` span per A block a `Step` streams, one per `Panel`.
    let step = |op: &PortOp| match op {
        PortOp::Step { worker, chunk, .. } => Some((*worker, chunk.height)),
        _ => None,
    };
    let problem = Partition::from_blocks(r, s, t, q);
    let holm_ops = Schedule::algorithm1(&problem, holm.chunk_side, holm.workers_used, 1).ops;
    let side = MemoryLayout::MaxReuseOverlapped.mu(60);
    let lu_ops = lu_schedule(n, mu, &[side, side]);
    let mut want = [0usize; 2];
    let lu_spans = lu_ops.iter().filter_map(|op| match op {
        LuOp::Panel { worker, .. } => Some((*worker, 1)),
        LuOp::Chunk(op) => step(op),
    });
    for (worker, spans) in holm_ops.iter().filter_map(step).chain(lu_spans) {
        want[worker.index()] += spans;
    }
    let mut streamed = BTreeSet::new();
    for path in &paths {
        let json = std::fs::read_to_string(path).expect("the worker wrote its trace file");
        std::fs::remove_file(path).expect("remove the trace file");
        let mut lines = json.lines();
        assert_eq!(lines.next(), Some("["), "{}: the file opens the array", path.display());
        let compute = ActivityKind::Compute.name();
        let on: Vec<u64> = lines.map(cat_and_tid).filter(|&(cat, _)| cat == compute).map(|(_, tid)| tid).collect();
        let tid = |w| chrome::tid_of_resource(Resource::Worker(WorkerId(w)));
        let Some(w) = (0..2).find(|&w| on.first() == Some(&tid(w))) else {
            panic!("{}: no worker compute spans", path.display())
        };
        assert!(on.iter().all(|&t| t == tid(w)), "{}: compute spans of one worker expected", path.display());
        assert_eq!(on.len(), want[w], "worker {w}'s compute spans");
        streamed.insert(w);
    }
    assert_eq!(streamed.len(), 2, "each worker streamed its own file");
}
