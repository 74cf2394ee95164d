//! `perf` — the repo's benchmark. Six named workloads drive the public
//! APIs of the runtime from outside, one process per workload; every op's
//! output is checked; end-to-end metrics come from an untraced timed
//! pass, per-layer metrics from a short traced pass plus a pass that
//! times each layer alone. See this package's `README.md` for the
//! glossary and `BENCHMARK.json` at the repo root for the contract.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perf --aa [--workload <name>]... [--seed N] [--seconds S]
//! perf --smoke
//! ```

mod layers;
mod metrics;
mod stats;
mod traced;
mod workloads;

use metrics::{Def, Values, END_TO_END, HET_OP_S_P50_BOUND, NOT_APPLICABLE, PER_LAYER};
use mwp_core::bounds::lower_bound_loomis_whitney;
use mwp_trace::record::{self, Capture};
use stats::{
    highest_supported_percentile, median, peak_rss_mib, percentile, ratio, segment_median_rate,
};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{setup, Kind, Pass, Prep, Spec, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2007;
/// Seconds a timed pass measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Segments of the throughput median.
const SEGMENTS: usize = 20;

/// Which passes a process runs.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Passes {
    /// The full untraced timed pass over repeated set-ups: end-to-end
    /// metrics. Without it a short untraced pass on one session still
    /// runs, as the reference the traced pass is compared with.
    timed: bool,
    /// The traced pass: `trace.*`.
    traced: bool,
    /// The layer pass: every layer timed alone, and the `eff.*` ratios.
    layer: bool,
}

impl Passes {
    /// `--trace 0`.
    const TIMED: Passes = Passes {
        timed: true,
        traced: false,
        layer: false,
    };
    /// `--trace 1`: every per-layer metric.
    const LAYERS: Passes = Passes {
        timed: false,
        traced: true,
        layer: true,
    };
    /// No `--trace`: everything, every metric.
    const ALL: Passes = Passes {
        timed: true,
        traced: true,
        layer: true,
    };

    /// The metrics a process running these passes answers for: its
    /// result line carries exactly these.
    fn reported(self) -> impl Iterator<Item = &'static Def> {
        let end_to_end = if self.timed { END_TO_END } else { &[] };
        let per_layer = if self.layer { PER_LAYER } else { &[] };
        end_to_end.iter().chain(per_layer)
    }
}

/// How much of everything a run does.
#[derive(Clone, Copy)]
struct Plan {
    seed: u64,
    /// Seconds the timed pass measures (sets its op count).
    seconds: f64,
    /// Times the set-up is repeated; `setup_s` is their median.
    setups: usize,
    /// Ops run, untimed, at the end of each set-up.
    warmups: usize,
    /// Ops in the traced pass (the serving workload: jobs, 40 times as many).
    traced_ops: usize,
    /// Multiplies the layer pass's iteration counts.
    layer_scale: f64,
}

impl Plan {
    fn full(seed: u64, seconds: f64) -> Self {
        Plan {
            seed,
            seconds,
            setups: 5,
            warmups: 3,
            traced_ops: 5,
            layer_scale: 1.0,
        }
    }

    /// 1/20 of the op counts, every check on.
    fn smoke() -> Self {
        Plan {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS / 20.0,
            setups: 1,
            warmups: 1,
            traced_ops: 2,
            layer_scale: 0.05,
        }
    }

    fn prep(&self) -> Prep {
        Prep {
            seed: self.seed,
            warmups: self.warmups,
        }
    }
}

/// What one workload's passes produced.
struct Outcome {
    values: Values,
    attempted: usize,
    failed: usize,
}

fn measure(spec: &Spec, plan: Plan, passes: Passes) -> Outcome {
    let mut values = Values::default();
    // The untraced reference pass, spread over several sessions: all of
    // `--seconds` over `plan.setups` sessions when end-to-end metrics are
    // wanted, a tenth of it on one session when it only anchors the
    // traced pass. Each session is set up from scratch (that is what
    // `setup_s` times, teardown excluded) and serves its share of the
    // ops: how the OS happens to place a session's threads is luck that
    // lasts as long as the session, and one run should not be one draw.
    assert!(
        !record::enabled(),
        "the span recorder must be off during the untraced pass"
    );
    let (sessions, seconds) = if passes.timed {
        (plan.setups, plan.seconds)
    } else {
        (1, plan.seconds / 10.0)
    };
    let ops = spec.ops_for(seconds).max(sessions);
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut reference = Pass::default();
    for k in 0..sessions {
        drop(workload.take());
        let t0 = Instant::now();
        let live = workload.insert(setup(spec, plan.prep()));
        setup_s.push(t0.elapsed().as_secs_f64());
        reference.append(live.run(ops * (k + 1) / sessions - ops * k / sessions));
    }
    let mut workload = workload.expect("at least one session");
    let (mut attempted, mut failed) = (reference.attempted, reference.failed);
    let gflops = end_to_end(&mut values, spec, &reference, median(&setup_s));
    workload_layers(&mut values, spec, &reference);

    if passes.traced {
        let ops = if spec.kind == Kind::Serving {
            40 * plan.traced_ops
        } else {
            plan.traced_ops
        };
        let capture = Capture::begin();
        let traced = workload.run(ops);
        let sums = traced::sum_spans(&capture.end());
        traced::emit(&mut values, &sums, &traced, &reference);
        attempted += traced.attempted;
        failed += traced.failed;
    }
    drop(workload);
    if passes.layer {
        layers::run(&mut values, plan.layer_scale);
        let peak = reference.workers_used as f64 * layers::kernel_gflops(&values, spec.kernel_q);
        values.put("eff.frac_of_kernel_peak", ratio(gflops, peak));
    }
    Outcome {
        values,
        attempted,
        failed,
    }
}

/// Emit the end-to-end metrics of an untraced pass; returns `gflops`.
fn end_to_end(values: &mut Values, spec: &Spec, pass: &Pass, setup_s: f64) -> f64 {
    let p50 = median(&pass.op_s);
    let rate = segment_median_rate(&pass.done, SEGMENTS);
    let flops_per_op = pass.flops / pass.attempted as f64;
    // One op at a time: an op's rate is the inverse of its wall. Several
    // in flight: only the pass as a whole has a rate.
    let ops_per_s = if spec.kind == Kind::Serving {
        rate
    } else {
        ratio(1.0, p50)
    };
    let gflops = flops_per_op * ops_per_s / 1e9;
    values.put("setup_s", setup_s);
    values.put("gflops", gflops);
    values.put("jobs_per_s", rate);
    values.put("op_s_p50", p50);
    values.put("op_s_p90", percentile(&pass.op_s, 90));
    values.put("peak_rss_mb", peak_rss_mib());
    gflops
}

/// Emit the per-layer metrics that are by-products of any pass of the
/// workload: exact counts, communication ratios, the scheduler's
/// metering. Which of them apply depends on the program the workload runs.
fn workload_layers(values: &mut Values, spec: &Spec, pass: &Pass) {
    let ops = pass.attempted as f64;
    values.put("blockmat.pack_count_per_op", pass.packs as f64 / ops);

    // A plan (selection) exists for exclusive product runs; blocks moved
    // are metered for every product, served or not.
    match spec.kind {
        Kind::Product => {
            values.put("core.plan.workers_used", pass.workers_used as f64);
            values.put("core.plan.chunk_side", pass.chunk_side as f64);
        }
        Kind::Lu | Kind::Serving => {
            values.not_applicable("core.plan.workers_used");
            values.not_applicable("core.plan.chunk_side");
        }
    }
    if spec.kind == Kind::Lu {
        values.not_applicable("core.blocks_moved_per_op");
        values.not_applicable("core.ccr");
        values.not_applicable("core.ccr_over_lw_bound");
        values.put("lu.messages_per_op", pass.lu_messages as f64 / ops);
        values.put("lu.workers_used", pass.workers_used as f64);
    } else {
        let ccr = ratio(pass.blocks_moved as f64, pass.updates);
        values.put("core.blocks_moved_per_op", pass.blocks_moved as f64 / ops);
        values.put("core.ccr", ccr);
        values.put(
            "core.ccr_over_lw_bound",
            ccr / lower_bound_loomis_whitney(spec.memory_m),
        );
        values.not_applicable("lu.messages_per_op");
        values.not_applicable("lu.workers_used");
    }

    const SERVING: [&str; 6] = [
        "core.serving.queue_wait_s_p50",
        "core.serving.queue_wait_s_p90",
        "core.serving.service_s_p50",
        "core.serving.service_s_p90",
        "core.serving.batch_size_mean",
        "core.serving.job_s_p99",
    ];
    if spec.kind != Kind::Serving {
        for name in SERVING {
            values.not_applicable(name);
        }
        return;
    }
    let secs = |f: fn(&mwp_msg::sched::JobReport) -> std::time::Duration| -> Vec<f64> {
        pass.reports.iter().map(|r| f(r).as_secs_f64()).collect()
    };
    let (queue, service) = (secs(|r| r.queue_wait), secs(|r| r.service));
    let batch: f64 = pass
        .reports
        .iter()
        .map(|r| r.batched_with as f64 + 1.0)
        .sum();
    let measured = [
        percentile(&queue, 50),
        percentile(&queue, 90),
        percentile(&service, 50),
        percentile(&service, 90),
        batch / ops,
        percentile(&pass.op_s, 99),
    ];
    for (name, v) in SERVING.into_iter().zip(measured) {
        values.put(name, v);
    }
}

/// Print a header line per provenance fact, then one `metric` line per
/// measured value — the format `--aa` reads back.
fn report(spec: &Spec, plan: Plan, passes: Passes, outcome: &Outcome) {
    println!("workload {}", spec.name);
    println!("seed {}", plan.seed);
    println!("git_rev {}", git_rev());
    println!(
        "nproc {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!("cpu_flags {}", cpu_flags());
    println!("kernel {}", mwp_blockmat::kernel::active().name());
    println!("ops_attempted {}", outcome.attempted);
    println!("ops_failed {}", outcome.failed);
    println!(
        "metric failed_frac {} ratio",
        outcome.failed as f64 / outcome.attempted as f64
    );
    let n = spec.ops_for(plan.seconds);
    if passes.timed && highest_supported_percentile(n) < Some(90) {
        println!("note op_s_p90 rests on {n} ops: fewer than ten samples lie beyond it");
    }
    // What the result line carries, plus the exact counts: they are
    // by-products of any pass, and `--aa` compares them.
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let wanted = def.exact || passes.reported().any(|d| d.name == def.name);
        match outcome.values.entry(def.name) {
            Some(Some(v)) if wanted => println!("metric {} {v} {}", def.name, def.unit),
            Some(None) if wanted => println!("metric {} n/a", def.name),
            _ => {}
        }
    }
}

/// The driver's result line: one JSON object, last on stdout.
fn result_line(outcome: &Outcome, passes: Passes) -> String {
    let metrics: Vec<String> = passes
        .reported()
        .map(|d| {
            let v = outcome
                .values
                .entry(d.name)
                .unwrap_or_else(|| panic!("{} not measured", d.name))
                .unwrap_or(NOT_APPLICABLE);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The commit of the checkout the process runs in, read straight from
/// `.git` (no subprocess), or `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let rev = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")),
        None => Some(head),
    });
    rev.map_or("unknown".into(), |r| r.chars().take(12).collect())
}

fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let flags = [
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ];
        let on: Vec<&str> = flags.iter().filter(|f| f.1).map(|f| f.0).collect();
        on.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::env::consts::ARCH.to_string()
}

/// Every workload and pass at 1/20 of the op counts, all checks on.
/// Returns how many ops failed.
fn smoke() -> usize {
    let plan = Plan::smoke();
    let mut failed = 0;
    for (i, spec) in workloads::SPECS.iter().enumerate() {
        let t0 = Instant::now();
        // The layer pass does not depend on the workload: once is enough.
        let passes = Passes {
            layer: i == 0,
            ..Passes::ALL
        };
        let outcome = measure(spec, plan, passes);
        if passes == Passes::ALL {
            // `put` admits only vocabulary names, once each: as many
            // values as names means every promised metric was measured.
            assert_eq!(outcome.values.len(), END_TO_END.len() + PER_LAYER.len());
        }
        println!(
            "smoke {}: {} ops, {} failed, {} metrics, {:.2} s",
            spec.name,
            outcome.attempted,
            outcome.failed,
            outcome.values.len(),
            t0.elapsed().as_secs_f64()
        );
        failed += outcome.failed;
    }
    failed
}

/// `name value` of every `metric` line in a child's stdout.
fn parse_metrics(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|l| {
            let mut words = l.strip_prefix("metric ")?.split(' ');
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect()
}

/// Runs per set and workload in `--aa`. One run each is not enough on a
/// shared machine: a half-minute burst from a neighbour slowed a single
/// run here by 58%, and a median of three shrugs one such run off.
const AA_RUNS: usize = 3;

/// Run each workload `AA_RUNS` times for set A and as often for set B,
/// in fresh processes, and compare the sets' medians: the tool that
/// tells noise from regression. Exit status is non-zero when an
/// end-to-end median differs by more than its bound or an exact count
/// differs between any two runs.
fn aa(names: &[&str], seed: u64, seconds: f64) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let child = |name: &str| {
        let out = Command::new(&exe)
            .args(["--workload", name, "--trace", "0"])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run a child benchmark process");
        assert!(
            out.status.success(),
            "{name}: child exited with {}",
            out.status
        );
        parse_metrics(&String::from_utf8_lossy(&out.stdout))
    };
    let mut ok = true;
    for (i, name) in names.iter().enumerate() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for pair in 0..AA_RUNS {
            // Alternate which set goes first, so neither always runs on
            // the machine state the other left behind.
            let (first, second) = if (i + pair) % 2 == 0 {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            first.push(child(name));
            second.push(child(name));
        }
        println!("{name}  (median A, median B, gap, bound)");
        for (k, (metric, _)) in a[0].iter().enumerate() {
            let Some(def) = metrics::def(metric) else {
                continue;
            };
            let column =
                |set: &[Vec<(String, f64)>]| set.iter().map(|run| run[k].1).collect::<Vec<_>>();
            let (va, vb) = (median(&column(&a)), median(&column(&b)));
            let (gap, bound) = match def.bound {
                Some(bound) => {
                    let het_control = *name == "het_paced_chan" && def.name == "op_s_p50";
                    (
                        (va - vb).abs() / va.abs(),
                        if het_control {
                            HET_OP_S_P50_BOUND
                        } else {
                            bound
                        },
                    )
                }
                // An exact count: the widest gap between any two runs.
                None if def.exact => {
                    let all = [column(&a), column(&b)].concat();
                    let (lo, hi) = all
                        .iter()
                        .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
                    (if hi == lo { 0.0 } else { (hi - lo) / hi.abs() }, 0.0)
                }
                None => continue,
            };
            let verdict = if gap <= bound { "ok" } else { "BEYOND BOUND" };
            ok &= gap <= bound;
            println!(
                "  {metric:<28} {va:<14.6} {vb:<14.6} {:>7.3}%  {:>5.1}%  {verdict}",
                gap * 100.0,
                bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       perf --aa [--workload <name>]... [--seed N] [--seconds S]
       perf --smoke";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    passes: Passes,
    aa: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        passes: Passes::ALL,
        aa: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = Spec::by_name(name).ok_or(format!(
                    "no workload '{name}' (valid: {})",
                    Spec::names().join(", ")
                ))?;
                out.workloads.push(spec.name);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                out.passes = match value()?.as_str() {
                    "0" => Passes::TIMED,
                    "1" => Passes::LAYERS,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--aa" => out.aa = true,
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !out.aa && !out.smoke && out.workloads.len() != 1 {
        return Err("name exactly one --workload".into());
    }
    Ok(out)
}

/// The `MWP_*` variables set in this process's environment. The program
/// under test reads them (kernel, pack, checksum, heartbeat, deadline,
/// trace, fault …) and any one would silently change the measured path.
fn mwp_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MWP_"))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = mwp_env();
    if !set.is_empty() {
        eprintln!(
            "perf: refusing to measure with {} set: only the shipped defaults are benchmarked",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.smoke {
        return if smoke() == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.aa {
        let names = if args.workloads.is_empty() {
            Spec::names()
        } else {
            args.workloads
        };
        return aa(&names, args.seed, args.seconds);
    }
    let spec = Spec::by_name(args.workloads[0]).expect("validated by parse_args");
    let plan = Plan::full(args.seed, args.seconds);
    let outcome = measure(spec, plan, args.passes);
    report(spec, plan, args.passes, &outcome);
    println!("{}", result_line(&outcome, args.passes));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, every pass, every output check, at smoke scale.
    #[test]
    fn smoke_runs_every_workload_and_pass_without_a_failed_op() {
        assert_eq!(smoke(), 0);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload lu_q80_tcp --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workloads.as_slice(), a.seed, a.seconds),
            (&["lu_q80_tcp"][..], 9, 2.5)
        );
        assert_eq!(a.passes, Passes::LAYERS);
        assert_eq!(
            parse("--workload lu_q80_tcp --trace 0").unwrap().passes,
            Passes::TIMED
        );
        assert_eq!(
            parse("--workload holm_q80_chan").unwrap().passes,
            Passes::ALL
        );
        assert!(parse("--aa").unwrap().workloads.is_empty());
        assert!(parse("--smoke").unwrap().smoke);
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload lu_q80_tcp --workload holm_q80_chan",
            "--workload lu_q80_tcp --trace 2",
            "--workload lu_q80_tcp --seconds 0",
            "--workload lu_q80_tcp --seconds 61",
            "--workload lu_q80_tcp --seed -1",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    #[test]
    fn the_result_line_has_the_contract_keys_and_metric_lines_read_back() {
        let mut values = Values::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            values.put(d.name, 1.5 + i as f64);
        }
        let outcome = Outcome {
            values,
            attempted: 7,
            failed: 0,
        };
        let line = result_line(&outcome, Passes::TIMED);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}") && !line.contains('\n'));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());

        // A failed op and a metric that does not apply: the line is still
        // printed, says so, and carries the one not-applicable number.
        let mut values = Values::default();
        for d in PER_LAYER {
            values.not_applicable(d.name);
        }
        let outcome = Outcome {
            values,
            attempted: 7,
            failed: 1,
        };
        let line = result_line(&outcome, Passes::LAYERS);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 7, \"failed\": 1, "));
        assert!(line.contains("\"lu.workers_used\": {\"value\": 0, \"unit\": \"count\"}"));

        let text = "workload x\nmetric op_s_p50 0.0471 s\nnote hi\nmetric gflops 36.5 GFLOP/s\n";
        assert_eq!(
            parse_metrics(text),
            vec![
                ("op_s_p50".to_string(), 0.0471),
                ("gflops".to_string(), 36.5)
            ]
        );
    }

    /// The benchmark is its own workspace root, so the repository's
    /// `[profile.release]` does not reach it: the copy in this package's
    /// manifest must say the same, or the benchmark times a different
    /// build than users get.
    #[test]
    fn own_manifest_repeats_the_repository_release_profile() {
        let profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let root = profile(include_str!("../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(profile(include_str!("../Cargo.toml")), root);
    }
}
