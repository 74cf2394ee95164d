//! Perf-baseline measurement: the fixed workload set whose timings gate
//! hot-path optimizations.
//!
//! The `bench_baseline` binary measures these workloads and either writes
//! them to a baseline file (`--write`) or compares the current build
//! against one recorded on the same machine (`--compare`), printing
//! per-workload speedups. The workload parameters intentionally mirror the
//! `benches/kernels.rs` criterion benches so the two report the same
//! hot paths.

use mwp_blockmat::fill::{random_block, random_diagonally_dominant, random_matrix};
use mwp_blockmat::gemm::{gemm_parallel, gemm_serial};
use mwp_blockmat::Block;
use mwp_core::serving::{JobSpec, MatrixServer};
use mwp_core::runtime::run_holm;
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::{run_lu, LuSession};
use mwp_platform::Platform;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fresh-spawn ↔ pooled-session workload pairs: same parameters, the only
/// difference being whether the worker pool is spawned per call or once
/// per sweep. The ratio `fresh / pooled` is the measured
/// spawn-amortization win tracked by `bench_baseline`.
pub const SESSION_PAIRS: &[(&str, &str)] = &[
    ("run_holm/6x6x8_q20", "session_reuse/run_holm_6x6x8_q20"),
    ("run_lu/4x8_mu2", "session_reuse/run_lu_4x8_mu2"),
];

/// One fresh-vs-pooled comparison extracted from a measurement set.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpeedup {
    /// The fresh-spawn workload name.
    pub fresh_name: &'static str,
    /// Fresh-spawn ns/iter.
    pub fresh_ns: f64,
    /// Pooled-session ns/iter.
    pub pooled_ns: f64,
    /// `fresh_ns / pooled_ns` — the spawn-amortization ratio.
    pub ratio: f64,
}

/// The spawn-amortization ratios measurable inside one measurement set
/// (both halves of a [`SESSION_PAIRS`] entry present).
pub fn session_speedups(measurements: &[Measurement]) -> Vec<SessionSpeedup> {
    SESSION_PAIRS
        .iter()
        .filter_map(|&(fresh, pooled)| {
            let f = measurements.iter().find(|m| m.name == fresh)?;
            let p = measurements.iter().find(|m| m.name == pooled)?;
            Some(SessionSpeedup {
                fresh_name: fresh,
                fresh_ns: f.ns_per_iter,
                pooled_ns: p.ns_per_iter,
                ratio: f.ns_per_iter / p.ns_per_iter,
            })
        })
        .collect()
}

/// The serving-tier throughput pair: the same queue of small-`q` jobs
/// through a [`MatrixServer`], one run generation per job vs fused
/// composite runs. The ratio `batch / serial` (in jobs/sec) is the
/// batching-tier win the `--serving-gate` asserts.
pub const SERVING_PAIR: (&str, &str) = ("serving/holm_q20_serial", "serving/holm_q20_batch");

/// The serial-vs-batched serving throughput ratio measurable inside one
/// measurement set (both halves of [`SERVING_PAIR`] present):
/// `(serial jobs/sec, batched jobs/sec, batched / serial)`.
pub fn serving_speedup(measurements: &[Measurement]) -> Option<(f64, f64, f64)> {
    let jobs_per_sec = |name: &str| {
        let m = measurements.iter().find(|m| m.name == name)?;
        m.jobs_per_sec.or(Some(1e9 / m.ns_per_iter))
    };
    let serial = jobs_per_sec(SERVING_PAIR.0)?;
    let batch = jobs_per_sec(SERVING_PAIR.1)?;
    Some((serial, batch, batch / serial))
}

/// One measured workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Workload name (stable across recordings).
    pub name: String,
    /// Mean wall time per iteration, nanoseconds.
    pub ns_per_iter: f64,
    /// Arithmetic throughput in GFLOP/s, for workloads with a known FLOP
    /// count (block kernels: `2q³` per update). `None` for workloads whose
    /// cost is dominated by scheduling/transport rather than arithmetic.
    pub gflops: Option<f64>,
    /// B packs performed per iteration (process-wide
    /// [`mwp_blockmat::kernel::pack_count`] delta over one deterministic
    /// call), where it is meaningful — this is the direct measure of
    /// repack elimination: e.g. `gemm_serial/6x6_q40` packs 36 B blocks
    /// prepacked vs 216 per-call. `None` for workloads without a stable
    /// pack count.
    pub packs_per_iter: Option<f64>,
    /// Completed jobs per second, for the `serving/*` workloads (one
    /// iteration = one job, so this is `1e9 / ns_per_iter` at record
    /// time — carried explicitly so the throughput gate and the humans
    /// reading the file need no conversion). `None` elsewhere.
    pub jobs_per_sec: Option<f64>,
    /// Median submit-to-completion latency of one job, nanoseconds
    /// (`serving/*` workloads only).
    pub p50_ns: Option<f64>,
    /// 99th-percentile submit-to-completion latency of one job,
    /// nanoseconds (`serving/*` workloads only).
    pub p99_ns: Option<f64>,
}

impl Measurement {
    fn timed(name: impl Into<String>, ns_per_iter: f64) -> Self {
        Measurement {
            name: name.into(),
            ns_per_iter,
            gflops: None,
            packs_per_iter: None,
            jobs_per_sec: None,
            p50_ns: None,
            p99_ns: None,
        }
    }

    /// A measurement with a known per-iteration FLOP count; `GFLOP/s`
    /// falls out as `flops / ns` (1 flop/ns = 1 GFLOP/s).
    fn with_flops(name: impl Into<String>, ns_per_iter: f64, flops: u64) -> Self {
        Measurement { gflops: Some(flops as f64 / ns_per_iter), ..Measurement::timed(name, ns_per_iter) }
    }

    /// Attach the pack count observed for one iteration of `f`.
    fn with_packs(mut self, f: impl FnOnce()) -> Self {
        let before = mwp_blockmat::kernel::pack_count();
        f();
        self.packs_per_iter = Some((mwp_blockmat::kernel::pack_count() - before) as f64);
        self
    }
}

/// Time `f` adaptively: calibrate, then take the best of three samples of
/// a ~200 ms measurement pass (best-of guards against scheduler noise).
pub fn time_workload<O>(mut f: impl FnMut() -> O) -> f64 {
    let budget = Duration::from_millis(200);
    // Calibration.
    let start = Instant::now();
    black_box(f());
    let per = start.elapsed().max(Duration::from_nanos(50));
    let iters = (budget.as_nanos() / per.as_nanos()).clamp(1, 5_000_000) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

/// Measure every baseline workload with the dispatched (active) kernel.
pub fn measure_all() -> Vec<Measurement> {
    let mut out = Vec::new();

    // Block-kernel q-sweep: tracks how the register-blocked microkernel
    // scales from call-overhead-bound (q = 20) through FLOP-bound
    // (q = 80–160) to the cache-blocked regime (q = 320, 640 — B at
    // q = 640 is 3.3 MB, far beyond L2, so these points sit on the
    // kc-blocked pack; without it they fall off the L2 cliff), in
    // GFLOP/s so kernel changes are measured, not asserted. The q = 80
    // point is the paper's unit of computation.
    for q in [20usize, 40, 80, 160, 320, 640] {
        let a = random_block(q, 1);
        let b = random_block(q, 2);
        let mut c = Block::zeros(q);
        let ns = time_workload(|| c.gemm_acc(black_box(&a), black_box(&b)));
        out.push(
            Measurement::with_flops(format!("block_kernel/q{q}"), ns, flops(q))
                .with_packs(|| c.gemm_acc(black_box(&a), black_box(&b))),
        );
    }

    // Whole-matrix products, serial and parallel (6×6 blocks of q = 40,
    // matching `kernels.rs/matrix_gemm`).
    {
        let q = 40;
        let a = random_matrix(6, 6, q, 1);
        let b = random_matrix(6, 6, q, 2);
        let c0 = random_matrix(6, 6, q, 3);
        let ns = time_workload(|| {
            let mut c = c0.clone();
            gemm_serial(&mut c, black_box(&a), &b);
            c
        });
        // Pack counts make the prepacked-panel reuse visible: 6×6×6
        // blocks is 216 per-call packs but only 36 (t·s) prepacked.
        out.push(Measurement::timed("gemm_serial/6x6_q40", ns).with_packs(|| {
            let mut c = c0.clone();
            gemm_serial(&mut c, &a, &b);
        }));
        let ns = time_workload(|| {
            let mut c = c0.clone();
            gemm_parallel(&mut c, black_box(&a), &b);
            c
        });
        out.push(Measurement::timed("gemm_parallel/6x6_q40", ns).with_packs(|| {
            let mut c = c0.clone();
            gemm_parallel(&mut c, &a, &b);
        }));
    }

    // The end-to-end threaded runtime (matching `kernels.rs/threaded_runtime`).
    {
        let pf = Platform::homogeneous(4, 4.0, 1.0, 60).expect("valid platform");
        let q = 20;
        let a = random_matrix(6, 6, q, 10);
        let b = random_matrix(6, 8, q, 11);
        let c0 = random_matrix(6, 8, q, 12);
        // One-shot: every iteration pays the worker spawn + join.
        let ns = time_workload(|| {
            run_holm(black_box(&pf), &a, &b, c0.clone(), 0.0)
                .expect("runtime succeeds")
                .blocks_moved
        });
        out.push(Measurement::timed("run_holm/6x6x8_q20", ns));

        // The same workload on a persistent session: the worker pool is
        // spawned once, outside the timed loop, so each iteration pays
        // only RUN_BEGIN/RUN_END control frames — the fresh/pooled ratio
        // is the spawn-amortization win (see `SESSION_PAIRS`).
        let session = RuntimeSession::new(&pf, 0.0);
        let ns = time_workload(|| {
            session
                .run_holm(black_box(&a), &b, c0.clone())
                .expect("runtime succeeds")
                .blocks_moved
        });
        // Worker-side pack count: one pack per received B block (per
        // k-step per resident column), not one per block update.
        out.push(Measurement::timed("session_reuse/run_holm_6x6x8_q20", ns).with_packs(|| {
            session.run_holm(&a, &b, c0.clone()).expect("runtime succeeds");
        }));
        session.shutdown();
    }

    out.extend(measure_serving());

    // Repeated threaded LU, one-shot vs held session (32 × 32 in
    // 8-block panels of width 2, three workers).
    {
        let pf = Platform::homogeneous(3, 1.0, 1.0, 1000).expect("valid platform");
        let m = random_diagonally_dominant(4, 8, 7);
        let ns = time_workload(|| run_lu(black_box(&pf), &m, 2, 0.0).messages);
        out.push(Measurement::timed("run_lu/4x8_mu2", ns));

        let session = LuSession::new(&pf, 0.0);
        let ns = time_workload(|| session.run(black_box(&m), 2).messages);
        out.push(Measurement::timed("session_reuse/run_lu_4x8_mu2", ns));
        session.shutdown();
    }

    out
}

/// Measure the serving-tier workloads ([`SERVING_PAIR`]): a queue of
/// identical small-`q` product jobs pushed through a [`MatrixServer`],
/// once with the batching tier off (one run generation per job) and
/// once with it on (queued jobs fuse into composite runs). One
/// iteration = one completed job, so `ns_per_iter` is the serving
/// period and `jobs_per_sec` its inverse; `p50_ns`/`p99_ns` are
/// submit-to-completion latencies over every job of every pass. Runs on
/// whatever transport `MWP_TRANSPORT` selects — the CI throughput gate
/// measures it over TCP.
pub fn measure_serving() -> Vec<Measurement> {
    let pf = Platform::homogeneous(4, 4.0, 1.0, 60).expect("valid platform");
    let q = 20;
    // Single-block jobs (1×1×1 of q = 20): the shape the batching tier
    // exists for. Small-`q` serving traffic is frame-bound, not
    // FLOP-bound — a solo run ships ~5 data/collect frames but pays ~8
    // lifecycle frames (RUN_BEGIN/RUN_END across the fleet) plus four
    // worker wake-ups and a full collect round trip, so most of the
    // serving period is overhead. The fused composite run pays all of
    // that once for the whole queue and spreads the chunks across the
    // fleet. A queue of 24 is deep enough that the batch leg fuses most
    // of it behind its lead job.
    let jobs: Vec<JobSpec> = (0..24)
        .map(|j| {
            let seed = 8600 + 10 * j;
            JobSpec {
                a: random_matrix(1, 1, q, seed),
                b: random_matrix(1, 1, q, seed + 1),
                c: random_matrix(1, 1, q, seed + 2),
                select: false,
            }
        })
        .collect();

    let mut out = Vec::new();
    for (name, batch) in [(SERVING_PAIR.0, false), (SERVING_PAIR.1, true)] {
        // One dispatcher for both legs: the measured difference is the
        // batching tier alone, not dispatcher parallelism.
        let server = MatrixServer::with_options(RuntimeSession::new(&pf, 0.0), 1, batch);
        let pass = |latencies: &mut Vec<f64>| {
            let t0 = Instant::now();
            let submitted: Vec<_> =
                jobs.iter().map(|spec| (Instant::now(), server.submit(spec.clone()))).collect();
            for (at, handle) in submitted {
                handle.wait().result.expect("serving bench job succeeds");
                latencies.push(at.elapsed().as_nanos() as f64);
            }
            t0.elapsed()
        };
        // Calibrate with one pass, then spend a ~400 ms budget. The
        // headline ns/job is the *best* pass, not the mean: serving
        // passes are milliseconds long, so one scheduler preemption
        // poisons a mean by 2-5x, while the per-pass minimum is the
        // standard noise-robust estimator of the achievable rate. The
        // recorded p50/p99 still aggregate every pass, so tail noise
        // stays visible in the stats rather than in the gate ratio.
        let mut latencies = Vec::new();
        let per = pass(&mut latencies).max(Duration::from_nanos(50));
        let passes = (Duration::from_millis(400).as_nanos() / per.as_nanos()).clamp(3, 500) as u32;
        latencies.clear();
        let mut ns_per_job = f64::INFINITY;
        for _ in 0..passes {
            let before = latencies.len();
            let took = pass(&mut latencies);
            let jobs_done = (latencies.len() - before).max(1);
            ns_per_job = ns_per_job.min(took.as_nanos() as f64 / jobs_done as f64);
        }
        latencies.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
        out.push(Measurement {
            jobs_per_sec: Some(1e9 / ns_per_job),
            p50_ns: Some(pct(0.50)),
            p99_ns: Some(pct(0.99)),
            ..Measurement::timed(name, ns_per_job)
        });
        server.shutdown();
    }
    out
}

/// FLOPs in one `q × q` block update (`C += A·B`): `2q³`.
fn flops(q: usize) -> u64 {
    (2 * q * q * q) as u64
}

/// Render measurements as the baseline-file document.
pub fn to_json(measurements: &[Measurement], label: &str) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"label\": \"{label}\",\n"));
    s.push_str("  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() { "" } else { "," };
        let gflops = match m.gflops {
            Some(g) => format!(", \"gflops\": {g:.2}"),
            None => String::new(),
        };
        let packs = match m.packs_per_iter {
            Some(p) => format!(", \"packs_per_iter\": {p:.0}"),
            None => String::new(),
        };
        let jobs = match m.jobs_per_sec {
            Some(j) => format!(", \"jobs_per_sec\": {j:.1}"),
            None => String::new(),
        };
        let p50 = match m.p50_ns {
            Some(p) => format!(", \"p50_ns\": {p:.1}"),
            None => String::new(),
        };
        let p99 = match m.p99_ns {
            Some(p) => format!(", \"p99_ns\": {p:.1}"),
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}{gflops}{packs}{jobs}{p50}{p99}}}{comma}\n",
            m.name, m.ns_per_iter
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parse the document written by [`to_json`] (line-oriented; this is not a
/// general JSON parser and only reads its own output format, including
/// documents from before the optional `gflops`/`packs_per_iter` fields).
pub fn from_json(doc: &str) -> Vec<Measurement> {
    /// Split `"<number>[, rest…]"` into the number and whatever follows.
    fn field(rest: &str) -> (f64, &str) {
        let end = rest.find(", \"").unwrap_or(rest.len());
        let num = rest[..end].trim_end_matches(['}', ',', ' ']);
        (num.parse::<f64>().unwrap_or(f64::NAN), &rest[end..])
    }
    let mut out = Vec::new();
    for line in doc.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("{\"name\": \"") else { continue };
        let Some((name, rest)) = rest.split_once("\", \"ns_per_iter\": ") else { continue };
        let (ns, rest) = field(rest);
        if ns.is_nan() {
            continue;
        }
        let gflops = rest
            .split_once("\"gflops\": ")
            .map(|(_, g)| field(g).0)
            .filter(|g| !g.is_nan());
        let packs_per_iter = rest
            .split_once("\"packs_per_iter\": ")
            .map(|(_, p)| field(p).0)
            .filter(|p| !p.is_nan());
        let opt = |key: &str| {
            rest.split_once(key).map(|(_, v)| field(v).0).filter(|v| !v.is_nan())
        };
        out.push(Measurement {
            name: name.to_string(),
            ns_per_iter: ns,
            gflops,
            packs_per_iter,
            jobs_per_sec: opt("\"jobs_per_sec\": "),
            p50_ns: opt("\"p50_ns\": "),
            p99_ns: opt("\"p99_ns\": "),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let ms = vec![
            Measurement::timed("a/b", 1234.5),
            Measurement { gflops: Some(26.25), ..Measurement::timed("c", 7.0) },
            Measurement {
                gflops: Some(1.25),
                packs_per_iter: Some(36.0),
                ..Measurement::timed("d", 9.5)
            },
            Measurement { packs_per_iter: Some(7.0), ..Measurement::timed("e", 2.0) },
            Measurement {
                jobs_per_sec: Some(1250.5),
                p50_ns: Some(700000.1),
                p99_ns: Some(5400000.9),
                ..Measurement::timed("serving/x", 800000.2)
            },
        ];
        let doc = to_json(&ms, "test");
        let back = from_json(&doc);
        assert_eq!(back, ms);
    }

    #[test]
    fn parses_pre_serving_documents() {
        // Recorded before the serving fields existed: they parse as None,
        // and a serving row reads back all three optional fields.
        let doc = concat!(
            "    {\"name\": \"gemm_serial/6x6_q40\", \"ns_per_iter\": 100.0, \"packs_per_iter\": 36},\n",
            "    {\"name\": \"serving/holm_q20_batch\", \"ns_per_iter\": 800000.0, ",
            "\"jobs_per_sec\": 1250.0, \"p50_ns\": 700000.0, \"p99_ns\": 5400000.0}\n",
        );
        let back = from_json(doc);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].jobs_per_sec, None);
        assert_eq!(back[0].p50_ns, None);
        assert_eq!(back[1].jobs_per_sec, Some(1250.0));
        assert_eq!(back[1].p50_ns, Some(700000.0));
        assert_eq!(back[1].p99_ns, Some(5400000.0));
    }

    #[test]
    fn serving_speedup_reads_the_pair() {
        let ms = vec![
            Measurement {
                jobs_per_sec: Some(500.0),
                ..Measurement::timed(SERVING_PAIR.0, 2_000_000.0)
            },
            Measurement {
                jobs_per_sec: Some(1500.0),
                ..Measurement::timed(SERVING_PAIR.1, 666_666.7)
            },
        ];
        let (serial, batch, ratio) = serving_speedup(&ms).expect("both halves present");
        assert_eq!(serial, 500.0);
        assert_eq!(batch, 1500.0);
        assert!((ratio - 3.0).abs() < 1e-12);
        // A half missing means no ratio — the gate must not pass vacuously.
        assert!(serving_speedup(&ms[..1]).is_none());
        // Rows without the explicit field fall back to 1e9/ns.
        let bare = vec![
            Measurement::timed(SERVING_PAIR.0, 2_000_000.0),
            Measurement::timed(SERVING_PAIR.1, 1_000_000.0),
        ];
        let (_, _, ratio) = serving_speedup(&bare).unwrap();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parses_pre_gflops_documents() {
        // A baseline file recorded before the gflops field existed.
        let doc = "    {\"name\": \"gemm_acc/q80\", \"ns_per_iter\": 119954.6},\n";
        let back = from_json(doc);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, "gemm_acc/q80");
        assert_eq!(back[0].gflops, None);
        assert_eq!(back[0].packs_per_iter, None);
    }

    #[test]
    fn parses_pre_packs_documents() {
        // Recorded after gflops but before packs_per_iter existed.
        let doc = "    {\"name\": \"block_kernel/q80\", \"ns_per_iter\": 28759.0, \"gflops\": 35.60},\n";
        let back = from_json(doc);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].gflops, Some(35.6));
        assert_eq!(back[0].packs_per_iter, None);
    }

    #[test]
    fn timing_returns_positive() {
        let ns = time_workload(|| std::hint::black_box(1 + 1));
        assert!(ns > 0.0);
    }

    #[test]
    fn session_speedups_pair_fresh_with_pooled() {
        let ms = vec![
            Measurement::timed("run_holm/6x6x8_q20", 1000.0),
            Measurement::timed("session_reuse/run_holm_6x6x8_q20", 250.0),
            Measurement::timed("run_lu/4x8_mu2", 80.0),
            // pooled LU half missing: that pair must be skipped
        ];
        let sp = session_speedups(&ms);
        assert_eq!(sp.len(), 1);
        assert_eq!(sp[0].fresh_name, "run_holm/6x6x8_q20");
        assert_eq!(sp[0].ratio, 4.0);
    }
}
