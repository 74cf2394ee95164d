//! Observability integration: invariants of the **measured** runtime
//! trace, over real threaded-runtime runs.
//!
//! The span recorder promises that real timelines obey the same laws the
//! simulator's traces do — that is what makes the sim-vs-real replay
//! harness (`replay_diff`) a fair comparison. These tests capture real
//! runs with [`mwp_trace::record::Capture`] and check:
//!
//! * per-resource mutual exclusion (the one-port property, measured),
//! * monotonic span timestamps,
//! * run-lifecycle bracketing (every `RUN_BEGIN` closed by a `RUN_END`
//!   or `RUN_ABORT` of the same generation),
//! * conservation of transferred volume (port span bytes sum to exactly
//!   `blocks_moved × 8q²`),
//! * Chrome-trace export structure and lossless round-trip through the
//!   sim-side reader,
//! * consistency between the scheduler's [`JobReport`] metering and the
//!   run spans of the same generation,
//! * the LU worker's `Kernel` detail spans (`factor` / `trsm` / `core`),
//!   each inside the `Compute` span of the op it served.
//!
//! The compute kernel under the captured runs follows `MWP_KERNEL`, so
//! the CI matrix exercises these invariants under both kernels; the
//! transport is an input of the randomized HoLM captures, so the port's
//! wait and transfer spans are also checked over a real socket stack.
//!
//! Captures are process-global, so every capturing test serializes on
//! [`CAPTURE_LOCK`].

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_core::serving::{JobSpec, MatrixServer};
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::LuSession;
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerId};
use mwp_trace::chrome;
use mwp_trace::record::Capture;
use mwp_trace::{Activity, ActivityKind, Resource, Trace};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

fn capture_lock() -> MutexGuard<'static, ()> {
    // A proptest failure in one test must not poison every other test.
    CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One real HoLM run on a fresh pooled session over `mode`, captured:
/// returns the measured trace and the runtime's own `blocks_moved` count.
fn captured_holm(
    mode: TransportMode,
    p: usize,
    r: usize,
    s: usize,
    t: usize,
    q: usize,
) -> (Trace, u64) {
    let _serial = capture_lock();
    let pf = Platform::homogeneous(p, 2.0, 1.0, 60).expect("valid platform");
    let a = random_matrix(r, s, q, 1);
    let b = random_matrix(s, t, q, 2);
    let c0 = random_matrix(r, t, q, 3);
    let capture = Capture::begin();
    let session = RuntimeSession::with_transport(&pf, 0.0, mode);
    let outcome = session.run_holm(&a, &b, c0).expect("run succeeds");
    let trace = capture.end();
    session.shutdown();
    (trace, outcome.blocks_moved)
}

/// Transfer volume through the master port: the sum of `bytes` over its
/// send/receive spans (control frames carry `bytes = 0` by contract).
fn port_bytes(trace: &Trace) -> u64 {
    trace
        .activities
        .iter()
        .filter(|a| {
            a.resource == Resource::MasterPort
                && matches!(a.kind, ActivityKind::Send | ActivityKind::Recv)
        })
        .map(|a| a.bytes)
        .sum()
}

/// Per-generation `(RUN_BEGIN count, RUN_END/RUN_ABORT count)`.
fn run_brackets(trace: &Trace) -> HashMap<u32, (usize, usize)> {
    let mut brackets: HashMap<u32, (usize, usize)> = HashMap::new();
    for a in &trace.activities {
        if a.kind != ActivityKind::Run {
            continue;
        }
        let slot = brackets.entry(a.run).or_default();
        match &*a.label {
            "RUN_BEGIN" => slot.0 += 1,
            "RUN_END" | "RUN_ABORT" => slot.1 += 1,
            other => panic!("unexpected run marker label {other:?}"),
        }
    }
    brackets
}

fn check_invariants(trace: &Trace, moved: u64, q: usize) -> Result<(), TestCaseError> {
    // Measured one-port property: no two occupying spans overlap on any
    // resource (Wait and Run markers are annotations, exempt by design).
    prop_assert!(
        trace.check_no_overlap().is_ok(),
        "measured trace violates per-resource exclusion: {:?}",
        trace.check_no_overlap()
    );
    // Monotonic timestamps.
    for a in &trace.activities {
        prop_assert!(
            a.end >= a.start,
            "span {:?} ends before it starts",
            a.label
        );
    }
    // Every RUN_BEGIN is bracketed by exactly one RUN_END/RUN_ABORT of
    // the same generation, and no close appears without a begin.
    for (run, (begins, closes)) in run_brackets(trace) {
        prop_assert_eq!(
            begins,
            closes,
            "generation {} has {} RUN_BEGIN but {} closes",
            run,
            begins,
            closes
        );
    }
    // Conservation of volume: what the spans say crossed the port is
    // exactly what the runtime accounted as moved.
    prop_assert_eq!(
        port_bytes(trace),
        moved * (8 * q * q) as u64,
        "port span bytes disagree with blocks_moved"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized transport and platform/problem shapes: every captured
    /// real run obeys the trace invariants.
    #[test]
    fn measured_trace_invariants(
        mode in 0usize..2,
        p in 1usize..4,
        r in 1usize..5,
        s in 1usize..5,
        t in 1usize..5,
        q in 4usize..10,
    ) {
        let mode = [TransportMode::Channel, TransportMode::Tcp][mode];
        let (trace, moved) = captured_holm(mode, p, r, s, t, q);
        prop_assert!(moved > 0, "run moved no blocks");
        check_invariants(&trace, moved, q)?;
    }
}

/// The golden structural contract of the Chrome-trace export for a fixed
/// small HoLM run: parses as JSON, carries the pid/tid/ph/ts/dur fields
/// Perfetto requires plus thread-name metadata, and round-trips through
/// the sim-side reader without losing a span.
#[test]
fn chrome_export_golden_structure() {
    let (trace, moved) = captured_holm(TransportMode::Channel, 2, 2, 2, 3, 5);
    assert!(moved > 0);
    let json = chrome::to_json(&trace);

    let doc = chrome::parse_json(&json).expect("export is valid JSON");
    let events = match &doc {
        chrome::Json::Arr(events) => events,
        other => panic!("export is not a JSON array: {other:?}"),
    };
    assert!(!events.is_empty());

    let mut complete = 0usize;
    let mut names = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("every event has ph");
        assert_eq!(ev.get("pid").and_then(chrome::Json::as_f64), Some(1.0));
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        match ph {
            "X" => {
                complete += 1;
                assert!(ev.get("tid").and_then(chrome::Json::as_f64).is_some());
                assert!(ev.get("ts").and_then(chrome::Json::as_f64).is_some());
                assert!(ev.get("dur").and_then(chrome::Json::as_f64).is_some());
                let args = ev.get("args").expect("X events carry args");
                assert!(args.get("start_s").and_then(chrome::Json::as_f64).is_some());
                assert!(args.get("end_s").and_then(chrome::Json::as_f64).is_some());
            }
            "M" => names += 1,
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(complete, trace.activities.len());
    assert!(names >= 2, "expected process + thread name metadata");

    // Round-trip through the reader: args carry exact f64 seconds, so
    // the rebuilt trace is bit-identical.
    let back = chrome::from_json(&json).expect("reader accepts own export");
    let sort = |mut v: Vec<Activity>| {
        v.sort_by(|a, b| {
            a.start.cmp(&b.start).then_with(|| format!("{:?}", a.resource).cmp(&format!("{:?}", b.resource)))
        });
        v
    };
    assert_eq!(sort(back.activities), sort(trace.activities.clone()));
}

/// Scheduler metering and trace agree: the served job's run generation
/// appears as a bracketed run span no longer than the reported service
/// time, and the port spans of that generation carry exactly the bytes
/// the report billed as moved.
#[test]
fn job_report_consistent_with_spans() {
    let _serial = capture_lock();
    let pf = Platform::homogeneous(2, 2.0, 1.0, 60).expect("valid platform");
    let q = 5;
    let spec = JobSpec {
        a: random_matrix(2, 2, q, 7),
        b: random_matrix(2, 3, q, 8),
        c: random_matrix(2, 3, q, 9),
        select: true,
    };
    let capture = Capture::begin();
    let server = MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 1, false);
    let done = server.run(spec);
    let trace = capture.end();
    server.shutdown();
    done.result.expect("job succeeds");
    let report = done.report;
    assert!(report.run_gen > 0);

    let closes: Vec<&Activity> = trace
        .activities
        .iter()
        .filter(|a| {
            a.kind == ActivityKind::Run && a.run == report.run_gen && &*a.label != "RUN_BEGIN"
        })
        .collect();
    assert_eq!(closes.len(), 1, "one close marker for the serving run");
    assert_eq!(&*closes[0].label, "RUN_END");

    // The run span lies inside the service window (pickup → result
    // ready); small slack absorbs the separate clock reads.
    let span = closes[0].duration();
    assert!(
        span <= report.service.as_secs_f64() + 1e-3,
        "run span {span}s exceeds reported service {:?}",
        report.service
    );

    let gen_bytes: u64 = trace
        .activities
        .iter()
        .filter(|a| {
            a.resource == Resource::MasterPort
                && a.run == report.run_gen
                && matches!(a.kind, ActivityKind::Send | ActivityKind::Recv)
        })
        .map(|a| a.bytes)
        .sum();
    assert_eq!(gen_bytes, report.blocks_moved * (8 * q * q) as u64);
}

/// An LU run says where its workers' time went: every op a worker serves
/// is one `Compute` span, and inside it the detail track carries the
/// kernels that ran — `factor` and `trsm` for each panel exchange (the
/// last step has no panels, so no `trsm`), `core` for each row group, one
/// `Pack` for each panel install — so `trace.kernel_s` is not 0 on LU.
#[test]
fn lu_run_records_kernel_spans_inside_compute_spans() {
    let _serial = capture_lock();
    let pf = Platform::homogeneous(2, 1.0, 1.0, 1000).expect("valid platform");
    let matrix = random_diagonally_dominant(6, 4, 11); // 3 steps of µ = 2
    let capture = Capture::begin();
    let session = LuSession::new(&pf, 0.0);
    let out = session.run(&matrix, 2);
    let trace = capture.end();
    session.shutdown();
    assert!(!out.aborted);
    assert!(trace.check_no_overlap().is_ok(), "{:?}", trace.check_no_overlap());

    let labelled = |kind: ActivityKind, label: &str| {
        trace.activities.iter().filter(|a| a.kind == kind && &*a.label == label).count()
    };
    assert_eq!(labelled(ActivityKind::Kernel, "factor"), 3, "one per step");
    assert_eq!(labelled(ActivityKind::Kernel, "trsm"), 2, "one per step with panels");
    assert_eq!(labelled(ActivityKind::Kernel, "core"), 2 + 1, "one per row group");
    assert_eq!(labelled(ActivityKind::Pack, "pack panel"), 2 + 1, "one per install");
    // Panel and core ops are Compute spans; installs send nothing back
    // and are not an occupancy unit.
    assert_eq!(labelled(ActivityKind::Compute, "LU op"), 3 + 3);

    for detail in trace.activities.iter().filter(|a| a.kind == ActivityKind::Kernel) {
        let Resource::WorkerDetail(w) = detail.resource else {
            panic!("kernel span {:?} off the detail track: {:?}", detail.label, detail.resource)
        };
        assert_eq!(detail.run, trace.activities[0].run, "stamped with the run's generation");
        let enclosing = trace.on(Resource::Worker(w)).any(|c| {
            c.kind == ActivityKind::Compute && c.start <= detail.start && detail.end <= c.end
        });
        assert!(enclosing, "{:?} on {w:?} lies outside every Compute span", detail.label);
    }
    // The pivot chain stayed on worker 0.
    let factors = trace.on(Resource::WorkerDetail(WorkerId(0)));
    assert_eq!(factors.filter(|a| &*a.label == "factor").count(), 3);
}
