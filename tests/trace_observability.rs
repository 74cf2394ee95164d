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
//! * consistency between the scheduler's [`JobReport`] metering and the
//!   run spans of the same generation,
//! * an LU run's spans in the product's vocabulary: `factor` / `trsm`
//!   kernel spans inside each panel's `Compute` span, and the trailing
//!   updates' `gemm` / `A update` / `pack B`, counted off the schedule,
//! * the operator's sink: `mwp-run --execute` under `MWP_TRACE=json:<path>`
//!   streams the spans a capture of the same run records, kind by kind
//!   and track by track, each line one `chrome::event_json` object (whose
//!   exact bytes `mwp_trace::chrome`'s own golden test pins).
//!
//! The transport is an input of the randomized HoLM captures, so the
//! port's wait and transfer spans are also checked over a real socket
//! stack. (`crates/worker/tests/remote_e2e.rs` checks the sink of worker
//! processes.)
//!
//! Captures are process-global, so every capturing test serializes on
//! [`CAPTURE_LOCK`].

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_core::runtime::run_holm;
use mwp_core::serving::{JobSpec, MatrixServer};
use mwp_core::session::RuntimeSession;
use mwp_core::schedule::PortOp;
use mwp_lu::runtime::factor;
use mwp_lu::schedule::{chunk_sides, lu_schedule, owners};
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerId};
use mwp_trace::chrome;
use mwp_trace::record::Capture;
use mwp_trace::{Activity, ActivityKind, Resource, Trace};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::process::{Command, Stdio};
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

/// An LU run says where its workers' time went in the span vocabulary a
/// product uses: each panel exchange is one `panel` `Compute` span holding
/// `factor` and — but on the last step, which has no panels — `trsm`
/// kernel spans, and each trailing update is the product's own `A update`
/// compute spans, each holding the one `gemm` of its A block against the
/// step's B row, and one `pack B` per `Step` op, counted off the run's
/// schedule — so `trace.kernel_s` is not 0 on LU.
#[test]
fn lu_run_records_kernel_spans_inside_compute_spans() {
    let _serial = capture_lock();
    let pf = Platform::homogeneous(2, 1.0, 1.0, 1000).expect("valid platform");
    let matrix = random_diagonally_dominant(6, 4, 11); // 3 steps of µ = 2
    let capture = Capture::begin();
    let session = RuntimeSession::new(&pf, 0.0);
    let out = factor(&session, &matrix, 2);
    let trace = capture.end();
    session.shutdown();
    assert!(!out.aborted);
    assert!(trace.check_no_overlap().is_ok(), "{:?}", trace.check_no_overlap());

    let labelled = |kind: ActivityKind, label: &str| {
        trace.activities.iter().filter(|a| a.kind == kind && &*a.label == label).count()
    };
    assert_eq!(labelled(ActivityKind::Compute, "panel"), 3, "one per step");
    assert_eq!(labelled(ActivityKind::Kernel, "factor"), 3, "one per step");
    assert_eq!(labelled(ActivityKind::Kernel, "trsm"), 2, "one per step with panels");
    // Sides of 4 reserve 32 blocks, short of a worker's 4 rows of 6 and a
    // step's 12: the rows stream.
    let sides = chunk_sides(&pf, 6, 2);
    assert!(owners(6, 2, &sides).is_none());
    let steps: Vec<(usize, usize)> = lu_schedule(6, 2, &sides)
        .iter()
        .filter_map(|op| match op.chunk() {
            Some(PortOp::Step { chunk, .. }) => Some((chunk.height, chunk.width)),
            _ => None,
        })
        .collect();
    let updates: usize = steps.iter().map(|(h, w)| h * w).sum();
    assert_eq!(updates, 4 * 4 * 2 + 2 * 2 * 2, "the rank-2 updates of the 4 × 4 and 2 × 2 trailing grids");
    let a_blocks: usize = steps.iter().map(|(h, _)| h).sum();
    assert_eq!(labelled(ActivityKind::Compute, "A update"), a_blocks);
    assert_eq!(labelled(ActivityKind::Kernel, "gemm"), a_blocks, "one per A block");
    assert_eq!(labelled(ActivityKind::Pack, "pack B"), steps.len(), "one per Step op");

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

/// Where the workers own their rows (8 blocks at µ = 2 on m = 1000), each
/// pivot is one `pivot` `Compute` span on its owner holding its `factor`
/// and — but on the last step — its `U₁₂` `trsm`, and each step a worker's
/// rows take is one `L21 update` span holding the `L₂₁` `trsm`, a
/// `pack U` per block row of the pivot and a `gemm` per row and block row —
/// cut in two by the `pivot` span where the worker factors a pivot
/// requested ahead within the step.
#[test]
fn owned_lu_records_kernel_spans_inside_compute_spans() {
    let _serial = capture_lock();
    let pf = Platform::homogeneous(2, 1.0, 1.0, 1000).expect("valid platform");
    assert!(owners(8, 2, &chunk_sides(&pf, 8, 2)).is_some());
    let matrix = random_diagonally_dominant(8, 4, 12); // 4 steps of µ = 2
    let capture = Capture::begin();
    let session = RuntimeSession::new(&pf, 0.0);
    assert!(!factor(&session, &matrix, 2).aborted);
    let trace = capture.end();
    session.shutdown();
    let labelled = |kind: ActivityKind, label: &str| {
        trace.activities.iter().filter(|a| a.kind == kind && &*a.label == label).count()
    };
    // Steps 0 to 3 leave 3, 2, 1 and 0 groups of 2 rows: 3 + 2 + 1 = 6
    // groups take a step, on 2, 2 and 1 workers.
    assert_eq!(labelled(ActivityKind::Compute, "pivot"), 4, "one per step");
    assert_eq!(labelled(ActivityKind::Kernel, "factor"), 4, "one per step");
    // Pivots 1, 2 and 3 are requested ahead and factored within the step
    // before theirs: three steps cut in two.
    assert_eq!(labelled(ActivityKind::Compute, "L21 update"), 2 + 2 + 1 + 3, "one per worker whose rows take a step, two where cut");
    assert_eq!(labelled(ActivityKind::Kernel, "trsm"), 3 + 5, "one per U₁₂ and one per L21 update");
    assert_eq!(labelled(ActivityKind::Pack, "pack U"), 2 * 5, "one per block row of each pivot");
    assert_eq!(labelled(ActivityKind::Kernel, "gemm"), 2 * 2 * (3 + 2 + 1), "one per row and block row");
    for detail in trace.activities.iter().filter(|a| a.kind == ActivityKind::Kernel) {
        let Resource::WorkerDetail(w) = detail.resource else {
            panic!("kernel span {:?} off the detail track: {:?}", detail.label, detail.resource)
        };
        let enclosing = trace.on(Resource::Worker(w)).any(|c| {
            c.kind == ActivityKind::Compute && c.start <= detail.start && detail.end <= c.end
        });
        assert!(enclosing, "{:?} on {w:?} lies outside every Compute span", detail.label);
    }
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

/// Spans per kind and track, `wait` annotations left out: one is recorded
/// only when the clock advanced while the caller was arbitrated, which two
/// runs of one schedule need not share.
fn span_counts<'a>(spans: impl Iterator<Item = (&'a str, u64)>) -> BTreeMap<(&'a str, u64), usize> {
    let mut counts = BTreeMap::new();
    for span in spans.filter(|&(cat, _)| cat != ActivityKind::Wait.name()) {
        *counts.entry(span).or_default() += 1;
    }
    counts
}

/// `mwp-run --execute` under `MWP_TRACE=json:<path>` streams to `path`
/// the spans a [`Capture`] of the same run — platform, shape and seeds —
/// records in this process, kind by kind and track by track: the run's
/// close flushes them to the writer, and the session's shutdown waits for
/// it before the process exits. The file is `[` and then one event line
/// per span.
#[test]
fn mwp_run_streams_the_spans_a_capture_of_the_same_run_records() {
    let path = std::env::temp_dir().join(format!("mwp-run-trace-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Many tiny blocks: a long last batch and a quick verification, so a
    // shutdown that does not wait for the writer loses spans.
    let (workers, q, (r, t, s)) = (2, 2, (24, 12, 24));
    let status = Command::new(env!("CARGO_BIN_EXE_mwp-run"))
        .args(["--workers", &workers.to_string(), "--blocks", &format!("{r}x{t}x{s}"), "--q", &q.to_string()])
        .args(["--mem", "60", "--c", "1.0", "--w", "4.0", "--execute"])
        .env("MWP_TRACE", format!("json:{}", path.display()))
        .stdout(Stdio::null())
        .status()
        .expect("spawn mwp-run");
    assert!(status.success(), "mwp-run exited with {status}");
    let json = std::fs::read_to_string(&path).expect("mwp-run wrote its trace file");
    std::fs::remove_file(&path).expect("remove the trace file");
    let mut lines = json.lines();
    assert_eq!(lines.next(), Some("["), "the file opens the array");
    let streamed = span_counts(lines.map(cat_and_tid));

    let _serial = capture_lock();
    let pf = Platform::homogeneous(workers, 1.0, 4.0, 60).expect("valid platform");
    let (a, b, c0) = (random_matrix(r, t, q, 1), random_matrix(t, s, q, 2), random_matrix(r, s, q, 3));
    let capture = Capture::begin();
    let outcome = run_holm(&pf, &a, &b, c0, 0.0).expect("run succeeds");
    let captured = capture.end();
    assert_eq!(outcome.workers_used, workers, "every worker streams spans");
    let captured = span_counts(captured.activities.iter().map(|a| (a.kind.name(), chrome::tid_of_resource(a.resource))));
    assert_eq!(streamed, captured, "left: mwp-run's file; right: a capture");
}

/// At the benchmark's shape (12 × 12 blocks, µ = 2, two workers owning
/// their rows) the next pivot's owner factors it while the other worker
/// still takes the step before: some `factor` kernel span on one worker
/// lies inside an `L21 update` span of the other. With every step a
/// barrier, none could.
#[test]
fn the_next_pivot_is_factored_while_the_other_worker_takes_the_step() {
    let _serial = capture_lock();
    let pf = Platform::homogeneous(2, 1.0, 1.0, 100_000).expect("valid platform");
    assert!(owners(12, 2, &chunk_sides(&pf, 12, 2)).is_some());
    let matrix = random_diagonally_dominant(12, 80, 13);
    let session = RuntimeSession::new(&pf, 0.0);
    let overlapped = (0..5).any(|_| {
        let capture = Capture::begin();
        assert!(!factor(&session, &matrix, 2).aborted);
        let trace = capture.end();
        let on = |w: usize, kind: ActivityKind, label: &str| -> Vec<(f64, f64)> {
            let resource = if kind == ActivityKind::Kernel { Resource::WorkerDetail(WorkerId(w)) } else { Resource::Worker(WorkerId(w)) };
            trace.on(resource).filter(|a| a.kind == kind && &*a.label == label).map(|a| (a.start.value(), a.end.value())).collect()
        };
        (0..2).any(|w| {
            let steps = on(1 - w, ActivityKind::Compute, "L21 update");
            on(w, ActivityKind::Kernel, "factor").iter().any(|&(s, e)| steps.iter().any(|&(s1, e1)| s1 < e && s < e1))
        })
    });
    session.shutdown();
    assert!(overlapped, "a pivot's factor overlaps the other worker's step in one of five runs");
}
