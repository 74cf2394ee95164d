//! `replay_diff` — sim-vs-real replay harness.
//!
//! Runs a real HoLM multiplication through the threaded runtime with the
//! span recorder capturing measured timelines, then replays the **measured
//! schedule** (the exact sequence of port transfers and the block updates
//! each one enabled) through the discrete-event simulator on a platform
//! calibrated from the same trace (`c_i` = measured port seconds per block
//! to worker `i`, `w_i` = mean measured update time on worker `i`).
//!
//! The diff reports, per phase of the model — makespan, master-port busy
//! time, per-worker compute time — the simulator's prediction next to the
//! measured value and the relative error. Busy times agree by construction
//! (that is the calibration); the makespan error is the real signal: it
//! measures how well the one-port queueing structure of Algorithm 3
//! explains the measured timeline (waits, overlap, FIFO arbitration).
//!
//! Exit status is non-zero when any phase exceeds `--tolerance` (default
//! 25% relative error), making the harness usable as a CI fidelity gate.
//! The transport follows `MWP_TRANSPORT`, so the same invocation validates
//! in-process channels and loopback sockets.
//!
//! ```text
//! cargo run --release -p mwp-bench --bin replay_diff -- --tolerance 0.25
//! ```

use mwp_blockmat::fill::random_matrix;
use mwp_core::session::RuntimeSession;
use mwp_platform::{Platform, WorkerId, WorkerParams};
use mwp_sim::{Decision, MasterPolicy, SimTime, Simulator, WorkerView};
use mwp_trace::record::Capture;
use mwp_trace::{Activity, ActivityKind, Resource, Trace};
use std::process::ExitCode;

/// One measured port operation, in measured start order.
#[derive(Debug, Clone)]
struct PortOp {
    kind: ActivityKind,
    peer: WorkerId,
    blocks: u64,
    /// Block updates this send enabled (sends only; attribution below).
    spawn_updates: u64,
}

/// Replays a measured schedule verbatim: the policy ignores the worker
/// views and issues the recorded port operations in their real order,
/// letting the engine re-derive every wait from the one-port model.
struct ReplayPolicy {
    ops: Vec<PortOp>,
    next: usize,
}

impl MasterPolicy for ReplayPolicy {
    fn next(&mut self, _now: SimTime, _workers: &[WorkerView]) -> Decision {
        let Some(op) = self.ops.get(self.next) else {
            return Decision::Finished;
        };
        self.next += 1;
        match op.kind {
            ActivityKind::Send => Decision::Send {
                to: op.peer,
                blocks: op.blocks,
                spawn_updates: op.spawn_updates,
                mem_delta: 0,
                label: "replay send".into(),
            },
            _ => Decision::Recv {
                from: op.peer,
                blocks: op.blocks,
                mem_delta: 0,
                label: "replay recv".into(),
            },
        }
    }
}

/// Everything extracted from one captured run.
struct Measured {
    ops: Vec<PortOp>,
    makespan: f64,
    port_busy: f64,
    /// Per-worker `(compute seconds, update count)`.
    workers: Vec<(f64, u64)>,
    /// Per-worker `(port seconds, blocks)` over that worker's transfers.
    links: Vec<(f64, u64)>,
}

/// Reduce a captured trace to the replayable schedule and the measured
/// per-phase totals. Only block-bearing transfers (`bytes > 0`) and
/// whole-block-update `Compute` spans enter the model — control frames,
/// one-port `Wait` annotations, run markers, and kernel/pack detail spans
/// are observability-only.
fn reduce(trace: &Trace, block_bytes: u64, p: usize) -> Measured {
    let mut transfers: Vec<&Activity> = trace
        .activities
        .iter()
        .filter(|a| {
            a.resource == Resource::MasterPort
                && a.bytes > 0
                && matches!(a.kind, ActivityKind::Send | ActivityKind::Recv)
        })
        .collect();
    transfers.sort_by_key(|a| a.start);

    let mut computes: Vec<(WorkerId, f64, f64)> = trace
        .activities
        .iter()
        .filter_map(|a| match a.resource {
            Resource::Worker(w) if a.kind == ActivityKind::Compute => {
                Some((w, a.start.value(), a.duration()))
            }
            _ => None,
        })
        .collect();
    computes.sort_by(|a, b| a.1.total_cmp(&b.1));

    // Attribute each block update to the last send to that worker whose
    // transfer started no later than the update did: that transfer is the
    // one that delivered the operand (updates cannot start before their
    // input message, and later sends had not begun).
    let mut ops: Vec<PortOp> = transfers
        .iter()
        .map(|a| PortOp {
            kind: a.kind,
            peer: a.peer,
            blocks: (a.bytes / block_bytes).max(1),
            spawn_updates: 0,
        })
        .collect();
    for &(w, start, _) in &computes {
        let mut owner = None;
        for (i, a) in transfers.iter().enumerate() {
            if a.kind == ActivityKind::Send && a.peer == w && a.start.value() <= start {
                owner = Some(i);
            }
        }
        if let Some(i) = owner {
            ops[i].spawn_updates += 1;
        }
    }

    let mut workers = vec![(0.0, 0u64); p];
    for &(w, _, dur) in &computes {
        if let Some(slot) = workers.get_mut(w.0) {
            slot.0 += dur;
            slot.1 += 1;
        }
    }
    let mut links = vec![(0.0, 0u64); p];
    for (a, op) in transfers.iter().zip(&ops) {
        if let Some(slot) = links.get_mut(op.peer.0) {
            slot.0 += a.duration();
            slot.1 += op.blocks;
        }
    }

    let port_busy: f64 = transfers.iter().map(|a| a.duration()).sum();
    let starts = transfers
        .iter()
        .map(|a| a.start.value())
        .chain(computes.iter().map(|&(_, s, _)| s));
    let ends = transfers
        .iter()
        .map(|a| a.end.value())
        .chain(computes.iter().map(|&(_, s, d)| s + d));
    let t0 = starts.fold(f64::INFINITY, f64::min);
    let t1 = ends.fold(0.0f64, f64::max);
    let makespan = if t0.is_finite() { t1 - t0 } else { 0.0 };

    Measured { ops, makespan, port_busy, workers, links }
}

/// A platform whose link and compute rates are those the trace measured,
/// with memory wide open (the replayed schedule already respected the real
/// buffer constraints; re-checking them here would double-count).
fn calibrated_platform(m: &Measured) -> Platform {
    let params: Vec<WorkerParams> = m
        .links
        .iter()
        .zip(&m.workers)
        .map(|(&(link_s, blocks), &(comp_s, updates))| {
            let c = if blocks > 0 { link_s / blocks as f64 } else { 1e-9 };
            let w = if updates > 0 { comp_s / updates as f64 } else { 1e-9 };
            WorkerParams::new(c.max(1e-12), w.max(1e-12), 1 << 20)
        })
        .collect();
    Platform::new(params).expect("calibrated platform is valid")
}

struct Args {
    tolerance: f64,
    q: usize,
    workers: usize,
    time_scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { tolerance: 0.25, q: 16, workers: 4, time_scale: 2e-4 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--q" => {
                args.q =
                    value("--q")?.parse().map_err(|e| format!("--q: {e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--time-scale" => {
                args.time_scale = value("--time-scale")?
                    .parse()
                    .map_err(|e| format!("--time-scale: {e}"))?
            }
            other => {
                return Err(format!(
                    "unknown flag {other} (valid: --tolerance --q --workers --time-scale)"
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("replay_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (r, s, t) = (6usize, 6usize, 8usize);
    let q = args.q;
    // Compute-bound ratio (w ≫ c) so the HoLM resource selection enrolls
    // the whole fleet and the replay exercises multi-worker attribution.
    let pf = Platform::homogeneous(args.workers, 1.0, 12.0, 60)
        .expect("valid platform");

    println!(
        "replay_diff: HoLM {r}x{s}x{t}, q={q}, {} workers, time_scale={}, transport={:?}",
        args.workers,
        args.time_scale,
        mwp_msg::config::transport_mode(),
    );

    // Measure: one real run under the span recorder. The capture is ended
    // before shutdown so teardown control frames stay out of the timeline.
    let a = random_matrix(r, s, q, 10);
    let b = random_matrix(s, t, q, 11);
    let c0 = random_matrix(r, t, q, 12);
    let capture = Capture::begin();
    let session = RuntimeSession::new(&pf, args.time_scale);
    let outcome = session.run_holm(&a, &b, c0).expect("real run succeeds");
    let trace = capture.end();
    session.shutdown();

    let block_bytes = 8 * (q as u64) * (q as u64);
    let measured = reduce(&trace, block_bytes, args.workers);
    let replayed_blocks: u64 = measured.ops.iter().map(|op| op.blocks).sum();
    println!(
        "  measured: {} port ops / {replayed_blocks} blocks (runtime reported {} moved), {} updates",
        measured.ops.len(),
        outcome.blocks_moved,
        measured.workers.iter().map(|w| w.1).sum::<u64>(),
    );

    // Replay: same schedule, calibrated rates, ideal one-port model.
    let sim_pf = calibrated_platform(&measured);
    let mut policy = ReplayPolicy { ops: measured.ops.clone(), next: 0 };
    let report = Simulator::new(sim_pf)
        .without_trace()
        .run(&mut policy)
        .expect("replay respects the memory model");

    // Diff: predicted vs measured per phase.
    let mut rows: Vec<(String, f64, f64)> = vec![
        ("makespan".into(), report.makespan.value(), measured.makespan),
        ("port busy".into(), report.port_busy_time, measured.port_busy),
    ];
    for (i, &(comp_s, _)) in measured.workers.iter().enumerate() {
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
        if gated && err.abs() > args.tolerance {
            failed.push(name.clone());
        }
    }

    if failed.is_empty() {
        println!("OK: every phase within ±{:.1}% of measured", args.tolerance * 100.0);
        ExitCode::SUCCESS
    } else {
        println!(
            "FAIL: {} outside ±{:.1}% tolerance",
            failed.join(", "),
            args.tolerance * 100.0
        );
        ExitCode::FAILURE
    }
}
