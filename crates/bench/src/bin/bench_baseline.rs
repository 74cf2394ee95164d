//! Record or compare a same-machine hot-path perf baseline.
//!
//! ```text
//! cargo run --release -p mwp-bench --bin bench_baseline -- --write PATH
//! cargo run --release -p mwp-bench --bin bench_baseline -- --compare PATH
//! ```
//!
//! `--write` measures the fixed workload set and writes `PATH`.
//! `--compare` measures the current build (or configuration) and prints
//! the speedup of each workload against the baseline recorded at `PATH`
//! on the same machine — no baseline file is committed: numbers from
//! other hardware gate nothing, and regressions between commits are the
//! business of the benchmark package (`perf/`), which runs parent and
//! change side by side. `--min-geomean X` exits nonzero if the geometric
//! mean of all compared speedups falls below `X` — the right shape for
//! aggregate-cost claims (such as "heartbeats cost at most 5%"), where
//! per-workload scheduler jitter on sub-millisecond paths would swamp a
//! worst-case floor. `--only PREFIX` (repeatable)
//! restricts both modes to workloads whose name starts with a given
//! prefix — how the CI heartbeat-cost gate measures `session_reuse/`
//! and `run_` without the pure-compute kernel sweeps.
//! `--serving-gate X` measures only the `serving/*` pair (the same job
//! queue through the scheduler, one run generation per job vs batched
//! composite runs) and exits nonzero unless the batched leg clears
//! `X`× the serial leg's jobs/sec — the CI throughput gate for the
//! batching tier, run over TCP.
//! Block-kernel workloads also report GFLOP/s (2q³ FLOPs per update), so
//! kernel throughput is tracked directly rather than inferred from time,
//! and pack-counting workloads report B packs per iteration, so repack
//! elimination is visible as a stat rather than inferred from the timing.
//!
//! Measurements run whatever kernel the dispatcher selects; force a
//! specific one with `MWP_KERNEL=scalar|avx2` to compare code paths.

use mwp_bench::baseline::{
    from_json, measure_all, measure_serving, serving_speedup, session_speedups, to_json,
    Measurement,
};

/// Print the fresh-spawn vs pooled-session amortization ratios measurable
/// in this run (both halves measured on the same build, same machine).
fn print_session_speedups(measurements: &[Measurement]) {
    for sp in session_speedups(measurements) {
        println!(
            "session reuse vs fresh spawn ({}): {:.0} -> {:.0} ns/iter ({:.2}x)",
            sp.fresh_name, sp.fresh_ns, sp.pooled_ns, sp.ratio
        );
    }
}

/// Print the serial vs batched serving throughput measurable in this run.
fn print_serving_speedup(measurements: &[Measurement]) {
    if let Some((serial, batch, ratio)) = serving_speedup(measurements) {
        println!(
            "batched serving vs one-run-per-job: {serial:.0} -> {batch:.0} jobs/sec ({ratio:.2}x)"
        );
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let min_geomean = match args.iter().position(|a| a == "--min-geomean") {
        Some(i) => {
            let v = args
                .get(i + 1)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("--min-geomean needs a numeric threshold");
                    std::process::exit(2);
                });
            args.drain(i..i + 2);
            Some(v)
        }
        None => None,
    };
    let mut only: Vec<String> = Vec::new();
    while let Some(i) = args.iter().position(|a| a == "--only") {
        let Some(prefix) = args.get(i + 1).cloned() else {
            eprintln!("--only needs a workload-name prefix");
            std::process::exit(2);
        };
        only.push(prefix);
        args.drain(i..i + 2);
    }
    let keep = |name: &str| only.is_empty() || only.iter().any(|p| name.starts_with(p.as_str()));
    let mode = args.first().map(String::as_str).unwrap_or("");
    let path = || {
        args.get(1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("{mode} needs the baseline file's PATH");
            std::process::exit(2);
        })
    };
    println!("block kernel: {}", mwp_blockmat::kernel::active().name());

    match mode {
        "--write" => {
            let path = path();
            let ms: Vec<Measurement> =
                measure_all().into_iter().filter(|m| keep(&m.name)).collect();
            for m in &ms {
                let gflops = m.gflops.map_or(String::new(), |g| format!(" {g:>8.2} GFLOP/s"));
                let packs =
                    m.packs_per_iter.map_or(String::new(), |p| format!(" {p:>6.0} packs"));
                println!("{:<28} {:>14.1} ns/iter{gflops}{packs}", m.name, m.ns_per_iter);
            }
            print_session_speedups(&ms);
            print_serving_speedup(&ms);
            let doc = to_json(&ms, "same-machine baseline");
            std::fs::write(path, doc).expect("write baseline file");
            println!("baseline written to {path}");
        }
        "--serving-gate" => {
            // Measure only the serving pair (fast) and assert the
            // batching tier's jobs/sec win over one-run-per-job. Runs on
            // whatever `MWP_TRANSPORT` selects — CI gates it over TCP,
            // where the per-run lifecycle costs real round trips.
            let floor = args
                .get(1)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("--serving-gate needs a numeric ratio floor (e.g. 2.0)");
                    std::process::exit(2);
                });
            let ms = measure_serving();
            for m in &ms {
                println!(
                    "{:<28} {:>14.1} ns/job {:>8.0} jobs/sec  p50 {:>10.0} ns  p99 {:>10.0} ns",
                    m.name,
                    m.ns_per_iter,
                    m.jobs_per_sec.unwrap_or(f64::NAN),
                    m.p50_ns.unwrap_or(f64::NAN),
                    m.p99_ns.unwrap_or(f64::NAN),
                );
            }
            let Some((serial, batch, ratio)) = serving_speedup(&ms) else {
                eprintln!("FAIL: the serving pair was not measured — the gate cannot pass vacuously");
                std::process::exit(1);
            };
            println!(
                "batched serving vs one-run-per-job: {serial:.0} -> {batch:.0} jobs/sec ({ratio:.2}x)"
            );
            if ratio < floor {
                eprintln!(
                    "FAIL: batched serving throughput is {ratio:.2}x one-run-per-job, \
                     below the --serving-gate floor {floor}x"
                );
                std::process::exit(1);
            }
            println!("batched serving throughput is at or above the {floor}x floor");
        }
        "--compare" => {
            let path = path();
            let doc = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read {path}: {e} (record one with --write)"));
            let baseline: Vec<Measurement> =
                from_json(&doc).into_iter().filter(|b| keep(&b.name)).collect();
            assert!(!baseline.is_empty(), "no benchmarks parsed from {path}");
            let current: Vec<Measurement> =
                measure_all().into_iter().filter(|m| keep(&m.name)).collect();
            println!(
                "{:<28} {:>14} {:>14} {:>9} {:>9} {:>7}",
                "workload", "baseline ns", "current ns", "speedup", "GFLOP/s", "packs"
            );
            let mut worst: f64 = f64::INFINITY;
            let mut log_sum = 0.0f64;
            let mut compared = 0usize;
            for c in &current {
                let gflops = c.gflops.map_or_else(|| " ".repeat(9), |g| format!("{g:9.2}"));
                let recorded = baseline.iter().find(|b| b.name == c.name);
                // Show the pack count as "baseline->current" when the
                // recorded file has one, so repack elimination reads
                // directly off the comparison.
                let packs = match (recorded.and_then(|b| b.packs_per_iter), c.packs_per_iter) {
                    (Some(b), Some(p)) if b != p => format!("{b:.0}->{p:.0}"),
                    (_, Some(p)) => format!("{p:7.0}"),
                    (_, None) => String::new(),
                };
                let Some(b) = recorded else {
                    println!(
                        "{:<28} {:>14} {:>14.1} {:>9} {gflops} {packs}",
                        c.name, "-", c.ns_per_iter, "new"
                    );
                    continue;
                };
                let speedup = b.ns_per_iter / c.ns_per_iter;
                worst = worst.min(speedup);
                log_sum += speedup.ln();
                compared += 1;
                println!(
                    "{:<28} {:>14.1} {:>14.1} {:>8.2}x {gflops} {packs}",
                    c.name, b.ns_per_iter, c.ns_per_iter, speedup
                );
            }
            // Baseline entries the current build no longer measures are a
            // coverage hole, not a pass — always surface them.
            for b in &baseline {
                if !current.iter().any(|c| c.name == b.name) {
                    println!("{:<28} {:>14.1} {:>14} (no longer measured)", b.name, b.ns_per_iter, "-");
                }
            }
            print_session_speedups(&current);
            print_serving_speedup(&current);
            let geomean =
                if compared > 0 { (log_sum / compared as f64).exp() } else { f64::NAN };
            println!(
                "worst speedup vs baseline: {worst:.2}x, geomean {geomean:.2}x \
                 ({compared} workloads compared)"
            );
            if min_geomean.is_some() && compared == 0 {
                eprintln!(
                    "FAIL: no workload matched the baseline file — the \
                     speedup gate would pass vacuously"
                );
                std::process::exit(1);
            }
            if let Some(floor) = min_geomean {
                if geomean < floor {
                    eprintln!(
                        "FAIL: speedup geomean {geomean:.2}x is below the --min-geomean floor {floor}x"
                    );
                    std::process::exit(1);
                }
                println!("speedup geomean {geomean:.2}x is at or above the {floor}x floor");
            }
        }
        other => {
            eprintln!("unknown mode '{other}'; use --write, --compare, or --serving-gate");
            std::process::exit(2);
        }
    }
}
