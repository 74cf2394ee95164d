//! `replay_diff` — sim-vs-real replay harness.
//!
//! Runs a real HoLM multiplication, the same product on a mixed-width
//! fleet (one `avx2` and one `avx512` worker; skipped on a CPU without
//! AVX-512F), then a real blocked LU, through the threaded runtimes with
//! the span recorder capturing measured timelines,
//! regenerates each run's schedule from its outcome ([`Schedule`] from the
//! enrolled workers and chunk side, [`lu_schedule`] from the fleet's chunk sides)
//! and checks, leg by leg, that the two executions of that one object
//! agree:
//!
//! * **order** — the block-bearing `MasterPort` spans the runtime
//!   recorded must equal the schedule's lowered frames ([`Replay`]'s,
//!   [`lower`]'s) one for one (send or receive, peer, blocks); any
//!   mismatch is a failure, no tolerance;
//! * **time** — the same frames run through the discrete-event
//!   simulator on a platform calibrated from the trace (`c_i` = measured
//!   port seconds per block to worker `i`, `w_i` = measured compute
//!   seconds on worker `i` per block update the schedule gives it), and
//!   the diff reports per phase — makespan, master-port busy time,
//!   per-worker compute time — the prediction next to the measured value.
//!   Busy times agree by calibration; the makespan error is the signal:
//!   how well the one-port queueing structure of Algorithm 3 explains the
//!   measured timeline (waits, overlap, FIFO arbitration). Each leg prints
//!   the fitted `w_i` and the slowest-to-fastest ratio — on the mixed
//!   fleet, how far apart the two vector widths compute.
//!
//! Exit status is non-zero when any phase exceeds `--tolerance` (default
//! 25% relative error), making the harness usable as a CI fidelity gate.
//! `--transport channel|tcp|uds` (default `channel`) picks what carries
//! the frames, so the same harness validates in-process channels and
//! loopback sockets.
//!
//! ```text
//! cargo run --release -p mwp-bench --bin replay_diff -- --tolerance 0.25
//! cargo run --release -p mwp-bench --bin replay_diff -- --transport tcp
//! ```

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::kernel::{self, by_name, Kernel};
use mwp_blockmat::{BlockMatrix, Partition};
use mwp_core::schedule::{Replay, Schedule};
use mwp_core::session::RuntimeSession;
use mwp_core::MemoryLayout;
use mwp_lu::runtime::factor;
use mwp_lu::schedule::{lower, lu_schedule};
use mwp_msg::config::parse_transport_mode;
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerId, WorkerParams};
use mwp_sim::{Decision, Simulator};
use mwp_trace::record::Capture;
use mwp_trace::{Activity, ActivityKind, Resource, Trace};
use std::process::ExitCode;

/// One port transfer as both executions describe it: send or receive,
/// peer, blocks.
type Transfer = (ActivityKind, WorkerId, u64);

/// Everything extracted from one captured run.
struct Measured {
    /// Block-bearing port transfers, in measured start order.
    transfers: Vec<Transfer>,
    makespan: f64,
    port_busy: f64,
    /// Per-worker compute seconds.
    compute: Vec<f64>,
    /// Per-worker `(port seconds, blocks)` over that worker's transfers.
    links: Vec<(f64, u64)>,
}

/// Reduce a captured trace to its port-transfer sequence and the measured
/// per-phase totals. Only block-bearing transfers (`bytes > 0`) and
/// whole-A-block `Compute` spans enter the model — control frames,
/// one-port `Wait` annotations, run markers, and kernel/pack detail spans
/// are observability-only.
fn reduce(trace: &Trace, block_bytes: u64, p: usize) -> Measured {
    let mut spans: Vec<&Activity> = trace
        .activities
        .iter()
        .filter(|a| {
            a.resource == Resource::MasterPort
                && a.bytes > 0
                && matches!(a.kind, ActivityKind::Send | ActivityKind::Recv)
        })
        .collect();
    spans.sort_by_key(|a| a.start);
    let computes: Vec<&Activity> = trace
        .activities
        .iter()
        .filter(|a| matches!(a.resource, Resource::Worker(_)) && a.kind == ActivityKind::Compute)
        .collect();

    let mut compute = vec![0.0; p];
    for a in &computes {
        if let Some(slot) = compute.get_mut(a.peer.index()) {
            *slot += a.duration();
        }
    }
    let mut links = vec![(0.0, 0u64); p];
    for a in &spans {
        if let Some(slot) = links.get_mut(a.peer.index()) {
            slot.0 += a.duration();
            slot.1 += a.bytes / block_bytes;
        }
    }

    let timed = || spans.iter().chain(&computes);
    let t0 = timed().map(|a| a.start.value()).fold(f64::INFINITY, f64::min);
    let t1 = timed().map(|a| a.end.value()).fold(0.0f64, f64::max);
    Measured {
        transfers: spans.iter().map(|a| (a.kind, a.peer, a.bytes / block_bytes)).collect(),
        makespan: if t0.is_finite() { t1 - t0 } else { 0.0 },
        port_busy: spans.iter().map(|a| a.duration()).sum(),
        compute,
        links,
    }
}

/// The port transfer a replayed frame stands for, and the block updates
/// it enables.
fn transfer_of(frame: &Decision) -> (Transfer, u64) {
    match *frame {
        Decision::Send { to, blocks, spawn_updates, .. } => {
            ((ActivityKind::Send, to, blocks), spawn_updates)
        }
        Decision::Recv { from, blocks, .. } => ((ActivityKind::Recv, from, blocks), 0),
        Decision::WaitUntil(_) | Decision::Finished => unreachable!("Replay only transfers"),
    }
}

/// `real` with the link and compute rates the trace measured: `c_i` is
/// port seconds per block, `w_i` compute seconds per block update of the
/// schedule (`updates[i]`). Memory stays the real `m_i` — the replay
/// carries the worker's own residency accounting.
fn calibrated_platform(real: &Platform, m: &Measured, updates: &[u64]) -> Platform {
    let rate = |seconds: f64, count: u64| {
        if count > 0 { (seconds / count as f64).max(1e-12) } else { 1e-9 }
    };
    let params: Vec<WorkerParams> = (0..real.len())
        .map(|i| {
            let (link_s, blocks) = m.links[i];
            WorkerParams::new(rate(link_s, blocks), rate(m.compute[i], updates[i]), real.workers()[i].m)
        })
        .collect();
    Platform::new(params).expect("calibrated platform is valid")
}

struct Args {
    tolerance: f64,
    q: usize,
    workers: usize,
    time_scale: f64,
    transport: TransportMode,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tolerance: 0.25,
        q: 16,
        workers: 4,
        time_scale: 2e-4,
        transport: TransportMode::Channel,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--tolerance" => {
                args.tolerance = value()?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--q" => args.q = value()?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--workers" => args.workers = value()?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--time-scale" => {
                args.time_scale = value()?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--transport" => {
                args.transport =
                    parse_transport_mode(&value()?).map_err(|e| format!("{flag}: {e}"))?
            }
            other => {
                return Err(format!(
                    "unknown flag {other} \
                     (valid: --tolerance --q --workers --time-scale --transport)"
                ))
            }
        }
    }
    Ok(args)
}

/// One leg of the harness: the frames a run's schedule lowers to
/// (`frames`) against the `trace` captured from that run on `real`.
/// `false` when the block-bearing port spans are not those frames one for
/// one, or a phase of the calibrated replay misses the measured timeline
/// by more than `tolerance`.
fn diff(
    trace: &Trace,
    block_bytes: u64,
    real: &Platform,
    frames: Vec<Decision>,
    reported_blocks: u64,
    tolerance: f64,
) -> bool {
    let measured = reduce(trace, block_bytes, real.len());
    let mut updates = vec![0u64; real.len()];
    let mut scheduled = Vec::with_capacity(frames.len());
    for frame in &frames {
        let (transfer, spawned) = transfer_of(frame);
        updates[transfer.1.index()] += spawned;
        scheduled.push(transfer);
    }
    if let Some(at) = (0..scheduled.len().max(measured.transfers.len()))
        .find(|&i| scheduled.get(i) != measured.transfers.get(i))
    {
        println!(
            "FAIL: schedule and trace part at port op {at}: scheduled {:?}, measured {:?}",
            scheduled.get(at),
            measured.transfers.get(at),
        );
        return false;
    }
    println!(
        "  schedule vs trace: {} port ops matched one for one ({} blocks, runtime reported {} moved), {} updates",
        scheduled.len(),
        scheduled.iter().map(|t| t.2).sum::<u64>(),
        reported_blocks,
        updates.iter().sum::<u64>(),
    );

    // Replay: same frames, calibrated rates, ideal one-port model.
    let calibrated = calibrated_platform(real, &measured, &updates);
    let fitted: Vec<(WorkerId, f64)> =
        (0..real.len()).filter(|&i| updates[i] > 0).map(|i| (WorkerId(i), calibrated.workers()[i].w)).collect();
    let (slowest, fastest) = fitted.iter().fold((0.0f64, f64::INFINITY), |(hi, lo), &(_, w)| (hi.max(w), lo.min(w)));
    println!(
        "  fitted w_i: {} (slowest / fastest {:.2})",
        fitted.iter().map(|(id, w)| format!("{id} {:.3} us", w * 1e6)).collect::<Vec<_>>().join(", "),
        slowest / fastest,
    );
    let report = Simulator::new(calibrated)
        .without_trace()
        .run(&mut frames.into_iter())
        .expect("replay respects the memory model");

    // Diff: predicted vs measured per phase.
    let mut rows: Vec<(String, f64, f64)> = vec![
        ("makespan".into(), report.makespan.value(), measured.makespan),
        ("port busy".into(), report.port_busy_time, measured.port_busy),
    ];
    for (i, &comp_s) in measured.compute.iter().enumerate() {
        rows.push((
            format!("{} compute", WorkerId(i)),
            report.worker_busy_time.get(i).copied().unwrap_or(0.0),
            comp_s,
        ));
    }

    println!("  {:<14} {:>12} {:>12} {:>9}", "phase", "predicted", "measured", "rel err");
    let mut failed = Vec::new();
    for (name, pred, meas) in &rows {
        // Phases too short to time meaningfully are reported, not gated.
        let gated = *meas > 1e-6;
        let err = if *meas > 0.0 { (pred - meas) / meas } else { 0.0 };
        println!(
            "  {:<14} {:>10.6} s {:>10.6} s {:>+8.1}%{}",
            name,
            pred,
            meas,
            err * 100.0,
            if gated { "" } else { "  (not gated)" },
        );
        if gated && err.abs() > tolerance {
            failed.push(name.clone());
        }
    }
    if !failed.is_empty() {
        println!("FAIL: {} outside ±{:.1}% tolerance", failed.join(", "), tolerance * 100.0);
    }
    failed.is_empty()
}

/// One captured HoLM run of `a·b + c0` on a fleet of `pf` whose worker `i`
/// computes with `kernels[i]`, diffed against the [`Schedule::algorithm1`]
/// its outcome names. Returns whether the leg passed, and the product.
fn holm_leg(
    args: &Args,
    pf: &Platform,
    kernels: &[&'static Kernel],
    (a, b, c0): (&BlockMatrix, &BlockMatrix, &BlockMatrix),
) -> (bool, BlockMatrix) {
    // The capture ends before shutdown, so teardown control frames stay
    // out of the timeline.
    let capture = Capture::begin();
    let session = RuntimeSession::with_kernels(pf, args.time_scale, args.transport, kernels);
    let outcome = session.run_holm(a, b, c0.clone()).expect("real run succeeds");
    let trace = capture.end();
    session.shutdown();
    // The same object, generated again from what the run reported.
    let problem = Partition::from_blocks(a.rows(), b.cols(), a.cols(), a.q());
    let replay = Replay::new(&Schedule::algorithm1(&problem, outcome.chunk_side, outcome.workers_used, 1));
    let block_bytes = 8 * (a.q() * a.q()) as u64;
    let passed = diff(&trace, block_bytes, pf, replay.frames().to_vec(), outcome.blocks_moved, args.tolerance);
    (passed, outcome.c)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("replay_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (r, t, s) = (6usize, 6usize, 8usize);
    let q = args.q;
    let block_bytes = 8 * (q as u64) * (q as u64);
    // Compute-bound ratio (w ≫ c) so the HoLM resource selection enrolls
    // the whole fleet and the replay exercises multi-worker attribution.
    let pf = Platform::homogeneous(args.workers, 1.0, 12.0, 60).expect("valid platform");

    println!(
        "replay_diff: HoLM {r}x{t}x{s}, q={q}, {} workers, time_scale={}, transport={:?}",
        args.workers,
        args.time_scale,
        args.transport,
    );

    // Measure: one real run under the span recorder.
    let a = random_matrix(r, t, q, 10);
    let b = random_matrix(t, s, q, 11);
    let c0 = random_matrix(r, s, q, 12);
    let (holm, product) = holm_leg(&args, &pf, &vec![kernel::active(); pf.len()], (&a, &b, &c0));

    // The mixed-width leg: the same product on one `avx2` and one `avx512`
    // worker, the paper's §6 platform of unequal compute speeds on real
    // arithmetic. The two kernels agree bit for bit, so the product must
    // be the HoLM leg's; their fitted `w_i` say how far apart they compute.
    let mixed = match (by_name("avx2"), by_name("avx512")) {
        (Ok(avx2), Ok(avx512)) => {
            println!("replay_diff: HoLM {r}x{t}x{s}, P1 on avx2 and P2 on avx512, same pacing");
            let pf = Platform::homogeneous(2, 1.0, 12.0, 60).expect("valid platform");
            let (passed, c) = holm_leg(&args, &pf, &[avx2, avx512], (&a, &b, &c0));
            let same_bits = c.max_abs_diff(&product) == 0.0;
            if !same_bits {
                println!("FAIL: the mixed fleet's product is not the HoLM leg's, bit for bit");
            }
            passed && same_bits
        }
        _ => {
            println!("replay_diff: mixed-width leg skipped: this CPU lacks AVX-512F");
            true
        }
    };

    // The LU leg: the factorization the runtime walks is `lu_schedule`
    // for the whole fleet at its chunk side, so its lowering is what the
    // port must carry.
    let (r, mu) = (12usize, 2usize);
    println!("replay_diff: LU {r}x{r} blocks, µ={mu}, same fleet and pacing");
    let matrix = random_diagonally_dominant(r, q, 13);
    let capture = Capture::begin();
    let session = RuntimeSession::with_transport(&pf, args.time_scale, args.transport);
    let outcome = factor(&session, &matrix, mu);
    let trace = capture.end();
    session.shutdown();
    if outcome.aborted {
        println!("FAIL: the LU run was aborted");
        return ExitCode::FAILURE;
    }
    let sides: Vec<usize> = pf.workers().iter().map(|w| MemoryLayout::MaxReuseOverlapped.mu(w.m)).collect();
    let frames = lower(&lu_schedule(r, mu, &sides));
    let lu = diff(&trace, block_bytes, &pf, frames, outcome.blocks_moved, args.tolerance);

    if holm && mixed && lu {
        println!("OK: every phase within ±{:.1}% of measured", args.tolerance * 100.0);
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
