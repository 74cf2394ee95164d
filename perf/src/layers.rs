//! The layer pass: each layer's public functions timed in isolation, on
//! one thread (plus the echo peer a round trip needs). It does not depend
//! on the workload; every process that reports per-layer metrics runs it,
//! so an end-to-end number always sits next to the peak of the layer
//! below, measured in the same run.

use crate::metrics::Values;
use crate::stats::median;
use crate::workloads::{het_platform, holm_q20, Prep, HET_SHAPE};
use mwp_blockmat::fill::{random_block, random_diagonally_dominant, random_matrix};
use mwp_blockmat::kernel::{self, PackedB};
use mwp_blockmat::lu::{lu_factor_in_place, trsm_left_unit_lower, trsm_right_upper, Dense};
use mwp_blockmat::{Block, Partition, SharedPayloads};
use mwp_core::algorithms::heterogeneous::HeterogeneousPolicy;
use mwp_core::selection::homogeneous::select_homogeneous;
use mwp_core::selection::incremental::{run_selection, SelectionRule};
use mwp_msg::checksum::crc32c;
use mwp_msg::lifecycle::{RUN_ABORT, RUN_END};
use mwp_msg::sched::{JobDone, JobExecutor, JobScheduler};
use mwp_msg::session::RunExit;
use mwp_msg::transport::{read_frame_from, write_frame_to, MAX_WIRE_LEN};
use mwp_msg::{
    BufferPool, Frame, FrameKind, OnePort, Session, StarNetwork, Tag, TransportMode, WorkerEndpoint,
};
use mwp_platform::{Platform, WorkerId, WorkerParams};
use mwp_sim::Simulator;
use mwp_trace::Resource;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

/// Time every layer and record its metrics. `scale` multiplies the
/// iteration counts (1.0 ≈ 3 s; the smoke test runs at 0.05).
pub fn run(values: &mut Values, scale: f64) {
    let timer = Timer { scale };
    blockmat(values, &timer);
    frame_and_checksum(values, &timer);
    transport(values, &timer);
    port_and_endpoint(values, &timer);
    session(values, &timer);
    sched(values, &timer);
    selection_and_sim(values, &timer);
    tcp_over_chan(values, &timer);
}

/// The single-thread `gemm_acc` rate recorded for block side `q`.
pub fn kernel_gflops(values: &Values, q: usize) -> f64 {
    let name = format!("blockmat.kernel_gflops_q{q}");
    values
        .get(&name)
        .unwrap_or_else(|| panic!("{name} is measured by the layer pass"))
}

#[derive(Clone, Copy)]
struct Timer {
    scale: f64,
}

/// Batches per measurement.
const ROUNDS: usize = 5;

impl Timer {
    fn iters(&self, full: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(1)
    }

    /// Seconds per call of `f`: one untimed call, then `ROUNDS` batches
    /// of `iters` calls, one mean per batch.
    fn batches<R>(&self, iters: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
        let iters = self.iters(iters);
        black_box(f());
        (0..ROUNDS)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t0.elapsed().as_secs_f64() / iters as f64
            })
            .collect()
    }

    /// Median batch: the number for anything that involves the OS.
    fn typical<R>(&self, iters: usize, f: impl FnMut() -> R) -> f64 {
        median(&self.batches(iters, f))
    }

    /// Best batch: the number for pure compute, where every disturbance
    /// only ever adds time.
    fn best<R>(&self, iters: usize, f: impl FnMut() -> R) -> f64 {
        self.batches(iters, f)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }
}

fn blockmat(values: &mut Values, timer: &Timer) {
    let kernel = kernel::active();
    for (q, name) in [
        (20, "blockmat.kernel_gflops_q20"),
        (40, "blockmat.kernel_gflops_q40"),
        (80, "blockmat.kernel_gflops_q80"),
        (320, "blockmat.kernel_gflops_q320"),
    ] {
        let (a, b) = (random_block(q, 1), random_block(q, 2));
        let mut c = Block::zeros(q);
        let flops = 2.0 * (q as f64).powi(3);
        // ~0.3 GFLOP a batch, whatever the block side.
        let s = timer.best((3e8 / flops) as usize, || {
            c.gemm_acc(black_box(&a), black_box(&b))
        });
        black_box(&c);
        values.put(name, flops / s / 1e9);
    }

    for (q, name) in [(80, "blockmat.pack_ns_q80"), (320, "blockmat.pack_ns_q320")] {
        let b = random_block(q, 3);
        let mut packed = PackedB::new();
        let s = timer.best(2_000_000 / (q * q), || {
            kernel.pack_into(&mut packed, black_box(b.as_slice()), q, q, 1.0)
        });
        values.put(name, s * 1e9);
    }

    let m = random_matrix(12, 12, 80, 4);
    let s = timer.best(4, || {
        (
            SharedPayloads::new(black_box(&m)),
            SharedPayloads::new_col_major(black_box(&m)),
        )
    });
    values.put(
        "blockmat.serialize_gbps",
        2.0 * m.byte_len() as f64 / s / 1e9,
    );

    // The LU kernels work in place, so each call starts from a fresh copy
    // of its operand (a 51 KB copy against ≥ 340 kFLOP of work).
    let q = 80;
    let a = Dense::from_blocks(&random_diagonally_dominant(1, q, 5));
    let mut work = a.clone();
    let s = timer.best(400, || {
        work.as_mut_slice().copy_from_slice(a.as_slice());
        lu_factor_in_place(black_box(&mut work));
    });
    values.put(
        "blockmat.lu_factor_gflops_q80",
        2.0 / 3.0 * (q as f64).powi(3) / s / 1e9,
    );

    let mut lu = a.clone();
    lu_factor_in_place(&mut lu);
    let panel = Dense::from_blocks(&random_matrix(1, 1, q, 6));
    let s = timer.best(100, || {
        work.as_mut_slice().copy_from_slice(panel.as_slice());
        trsm_right_upper(black_box(&mut work), &lu);
        work.as_mut_slice().copy_from_slice(panel.as_slice());
        trsm_left_unit_lower(black_box(&mut work), &lu);
    });
    values.put(
        "blockmat.trsm_gflops_q80",
        2.0 * (q as f64).powi(3) / s / 1e9,
    );
}

/// A block frame of side `q`, its payload a view into a serialized
/// matrix exactly as the runtimes build theirs.
fn block_frame(q: usize) -> Frame {
    let payloads = SharedPayloads::new(&random_matrix(1, 1, q, 7));
    Frame::new_in_run(Tag::new(FrameKind::BlockA, 1, 2), 3, payloads.get(0, 0))
}

fn frame_and_checksum(values: &mut Values, timer: &Timer) {
    let (f20, f80) = (block_frame(20), block_frame(80));
    let s = timer.best(100_000, || black_box(&f20).encode());
    values.put("msg.frame.encode_ns_q20", s * 1e9);
    let s = timer.best(20_000, || black_box(&f80).encode());
    values.put("msg.frame.encode_ns_q80", s * 1e9);

    let pool = BufferPool::new();
    let image = pool.bytes_with(f20.wire_len(), |buf| buf.extend_from_slice(&f20.encode()));
    let s = timer.best(500_000, || Frame::decode_bytes(image.clone()));
    values.put("msg.frame.decode_ns_q20", s * 1e9);

    let s = timer.best(4_000, || crc32c(black_box(&f80.payload)));
    values.put(
        "msg.checksum.crc32c_gbps",
        f80.payload.len() as f64 / s / 1e9,
    );
}

/// Echo every frame read from `stream` back onto it until the peer
/// closes (wire format of the socket transports, CRC trailer on).
fn echo_frames(mut stream: impl Read + Write) {
    let pool = BufferPool::new();
    while let Ok(Some(frame)) = read_frame_from(&mut stream, &pool, MAX_WIRE_LEN, true) {
        if write_frame_to(&mut stream, &frame, true).is_err() {
            break;
        }
    }
}

/// Seconds per round trip of `frame` over a connected stream pair, the
/// far end echoing on a thread of its own.
fn round_trip<S>(timer: &Timer, frame: &Frame, (mut near, far): (S, S)) -> f64
where
    S: Read + Write + Send + 'static,
{
    let echo = std::thread::spawn(move || echo_frames(far));
    let pool = BufferPool::new();
    let s = timer.typical(500, || {
        write_frame_to(&mut near, frame, true).expect("send");
        let back = read_frame_from(&mut near, &pool, MAX_WIRE_LEN, true).expect("receive");
        assert_eq!(back.expect("echo").payload.len(), frame.payload.len());
    });
    drop(near); // EOF ends the echo loop
    echo.join().expect("echo thread");
    s
}

fn tcp_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let near = TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect");
    let (far, _) = listener.accept().expect("accept");
    // What `TcpTransport::new` sets on every link.
    near.set_nodelay(true).expect("nodelay");
    far.set_nodelay(true).expect("nodelay");
    (near, far)
}

fn transport(values: &mut Values, timer: &Timer) {
    let f20 = block_frame(20);
    values.put(
        "msg.transport.tcp_rtt_us_q20",
        round_trip(timer, &f20, tcp_pair()) * 1e6,
    );
    let uds = UnixStream::pair().expect("socketpair");
    values.put(
        "msg.transport.uds_rtt_us_q20",
        round_trip(timer, &f20, uds) * 1e6,
    );

    // One-way streaming: the sink reads `frames` block frames, then
    // answers with one frame so the sender knows the last byte arrived.
    let f80 = block_frame(80);
    let frames = timer.iters(400);
    let bursts = 1 + ROUNDS; // `batches` below: one untimed call, then one per round
    let (mut near, mut far) = tcp_pair();
    let sink = std::thread::spawn(move || {
        let pool = BufferPool::new();
        for _ in 0..bursts {
            for _ in 0..frames {
                read_frame_from(&mut far, &pool, MAX_WIRE_LEN, true)
                    .expect("read")
                    .expect("frame");
            }
            write_frame_to(&mut far, &Frame::heartbeat(), true).expect("ack");
        }
    });
    let pool = BufferPool::new();
    let s = Timer { scale: 1.0 }.typical(1, || {
        for _ in 0..frames {
            write_frame_to(&mut near, &f80, true).expect("send");
        }
        read_frame_from(&mut near, &pool, MAX_WIRE_LEN, true)
            .expect("ack")
            .expect("frame");
    });
    sink.join().expect("sink thread");
    let bytes = (frames * f80.payload.len()) as f64;
    values.put("msg.transport.tcp_stream_gbps_q80", bytes / s / 1e9);
}

fn port_and_endpoint(values: &mut Values, timer: &Timer) {
    let port = OnePort::new();
    let s = timer.best(100_000, || drop(port.acquire()));
    values.put("msg.port.acquire_ns", s * 1e9);

    let platform = Platform::homogeneous(1, 1.0, 1.0, 16).expect("valid platform");
    let (master, mut workers) = StarNetwork::build(&platform, 0.0).into_endpoints();
    let worker = workers.remove(0);
    let echo = std::thread::spawn(move || {
        while let Ok(frame) = worker.recv() {
            if frame.tag.kind == FrameKind::Shutdown {
                break;
            }
            worker.send(frame);
        }
    });
    let frame = block_frame(20);
    let s = timer.typical(1_000, || {
        master.send(WorkerId(0), frame.clone(), 1);
        master.recv(WorkerId(0), 1).expect("echo")
    });
    master.send(WorkerId(0), Frame::shutdown(), 0);
    echo.join().expect("echo thread");
    values.put("msg.endpoint.chan_echo_us", s * 1e6);
}

/// A worker program that does nothing: it consumes the run's frames
/// until the run ends.
fn idle_program(_param: u32, ep: &WorkerEndpoint) -> RunExit {
    loop {
        match ep.recv() {
            Ok(f) if f.tag.kind == FrameKind::Shutdown => return RunExit::Terminate,
            Ok(f)
                if f.tag.kind == FrameKind::Control
                    && (f.tag.i == RUN_END || f.tag.i == RUN_ABORT) =>
            {
                return RunExit::Completed
            }
            Ok(_) => {}
            Err(_) => return RunExit::Terminate,
        }
    }
}

fn session(values: &mut Values, timer: &Timer) {
    let platform = Platform::homogeneous(2, 1.0, 1.0, 60).expect("valid platform");
    for (mode, spawn_name, run_name) in [
        (
            TransportMode::Channel,
            "msg.session.spawn_ms_chan",
            "msg.session.empty_run_us_chan",
        ),
        (
            TransportMode::Tcp,
            "msg.session.spawn_ms_tcp",
            "msg.session.empty_run_us_tcp",
        ),
    ] {
        let spawn = || Session::spawn_with_transport(&platform, 0.0, mode, |_, _| idle_program);
        // Only the spawn is timed; the teardown between two spawns is not.
        let mut spawn_s = Vec::new();
        for _ in 0..timer.iters(20).max(3) {
            let t0 = Instant::now();
            let s = spawn();
            spawn_s.push(t0.elapsed().as_secs_f64());
            assert_eq!(s.shutdown(), 2);
        }
        values.put(spawn_name, median(&spawn_s) * 1e3);

        let s = spawn();
        let per_run = timer.typical(2_000, || {
            let epoch = s.begin_run(2, 0);
            s.finish_run(2, epoch);
        });
        assert_eq!(s.shutdown(), 2);
        values.put(run_name, per_run * 1e6);
    }
}

/// An executor whose jobs do nothing: what is left is the scheduler.
struct Noop;

impl JobExecutor<u32, u32> for Noop {
    fn execute(&self, jobs: Vec<u32>) -> Vec<JobDone<u32>> {
        jobs.into_iter()
            .map(|j| JobDone {
                result: j,
                blocks_moved: 0,
                run_gen: 0,
            })
            .collect()
    }
}

fn sched(values: &mut Values, timer: &Timer) {
    let sched = JobScheduler::spawn(4, Arc::new(Noop));
    let s = timer.typical(2_000, || sched.submit(1).wait());
    values.put("msg.sched.noop_job_us", s * 1e6);

    const WINDOW: u32 = 16;
    let s = timer.typical(1_000, || {
        let handles: Vec<_> = (0..WINDOW).map(|j| sched.submit(j)).collect();
        handles.into_iter().map(|h| h.wait().result).sum::<u32>()
    });
    sched.shutdown();
    values.put("msg.sched.noop_jobs_per_s", f64::from(WINDOW) / s);
}

fn selection_and_sim(values: &mut Values, timer: &Timer) {
    let params = WorkerParams::new(1.0, 1.0, 60);
    let s = timer.best(1_000_000, || {
        select_homogeneous(black_box(&params), 2, 12, 12)
    });
    values.put("core.selection.homogeneous_ns", s * 1e9);

    let platform = het_platform();
    let (r, t, s_cols) = HET_SHAPE;
    let s = timer.best(2_000, || {
        run_selection(black_box(&platform), SelectionRule::Global, r, s_cols, t)
    });
    values.put("core.selection.incremental_us", s * 1e6);

    // The simulator on the `het_paced_chan` problem. Building the policy
    // is selection (timed above); only the engine's untraced run is timed.
    // One traced run counts the port operations a run decides.
    let problem = Partition::from_blocks(r, s_cols, t, 20);
    let plan = || HeterogeneousPolicy::plan(&platform, &problem, SelectionRule::Global);
    let traced = Simulator::new(platform.clone())
        .run(&mut plan())
        .expect("simulation completes");
    let port_ops = traced.trace.on(Resource::MasterPort).count();
    let sim = Simulator::new(platform.clone()).without_trace();
    let runs = timer.iters(2_000);
    let mut busy = 0.0;
    for _ in 0..runs {
        let mut policy = plan();
        let t0 = Instant::now();
        black_box(sim.run(&mut policy).expect("simulation completes"));
        busy += t0.elapsed().as_secs_f64();
    }
    values.put("sim.port_ops_per_s", (runs * port_ops) as f64 / busy);
}

/// `holm_q20_tcp`'s shape once over sockets and once over channels:
/// what the wire costs a run whose frames are small.
fn tcp_over_chan(values: &mut Values, timer: &Timer) {
    let ops = timer.iters(10).max(2);
    let p50 = |mode| {
        let prep = Prep {
            seed: 9,
            warmups: 1,
        };
        let pass = holm_q20(mode, prep).run(ops);
        assert_eq!(
            pass.failed, 0,
            "holm_q20 on {mode:?} failed its output check"
        );
        median(&pass.op_s)
    };
    values.put(
        "eff.tcp_over_chan_q20",
        p50(TransportMode::Channel) / p50(TransportMode::Tcp),
    );
}
