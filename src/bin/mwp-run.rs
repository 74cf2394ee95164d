//! `mwp-run` — command-line front end: simulate (and optionally really
//! execute) a master-worker matrix product.
//!
//! ```text
//! mwp-run [--workers N] [--c SECS] [--w SECS] [--mem BLOCKS]
//!         [--blocks RxTxS] [--q Q] [--algorithm NAME|all]
//!         [--two-port] [--gantt] [--execute]
//! mwp-run --platform-file PATH [--blocks RxTxS] [--q Q]
//! ```
//!
//! Defaults reproduce the paper's first Figure 10 configuration at a
//! reduced size. `--execute` additionally runs the threaded runtime with
//! real coefficients and verifies the product (keep the block counts
//! modest for that). `--platform-file` simulates the heterogeneous
//! two-phase scheduler on the described platform instead.
//!
//! Exit status: 0 on success, 1 when `--execute` did not produce a
//! verified product (failed, wrong, or refused as too large), 2 on a
//! usage error.

use master_worker_matrix::prelude::*;
use mwp_core::algorithms::{simulate_traced, simulate_two_port};
use mwp_sim::gantt;

struct Args {
    workers: usize,
    c: f64,
    w: f64,
    mem: usize,
    r: usize,
    t: usize,
    s: usize,
    q: usize,
    /// `None` = not given: HoLM.
    algorithm: Option<String>,
    two_port: bool,
    gantt: bool,
    execute: bool,
    /// Heterogeneous platform description (`c w m` per line); overrides
    /// the homogeneous flags and switches to the two-phase scheduler.
    platform_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workers: 8,
        c: 4.096e-3,
        w: 3.103e-4,
        mem: 2703, // 132 MB of q = 80 blocks
        r: 20,
        t: 20,
        s: 160,
        q: 80,
        algorithm: None,
        two_port: false,
        gantt: false,
        execute: false,
        platform_file: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workers" => args.workers = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--c" => args.c = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--w" => args.w = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--mem" => args.mem = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--q" => args.q = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--blocks" => {
                let v = value(&mut i)?;
                let parts: Vec<&str> = v.split('x').collect();
                if parts.len() != 3 {
                    return Err("--blocks expects RxTxS, e.g. 20x20x160".into());
                }
                args.r = parts[0].parse().map_err(|e| format!("{e}"))?;
                args.t = parts[1].parse().map_err(|e| format!("{e}"))?;
                args.s = parts[2].parse().map_err(|e| format!("{e}"))?;
            }
            "--algorithm" => args.algorithm = Some(value(&mut i)?),
            "--platform-file" => args.platform_file = Some(value(&mut i)?),
            "--two-port" => args.two_port = true,
            "--gantt" => args.gantt = true,
            "--execute" => args.execute = true,
            "--help" | "-h" => {
                return Err("usage: mwp-run [--workers N] [--c SECS] [--w SECS] [--mem BLOCKS] \
                            [--blocks RxTxS] [--q Q] [--algorithm NAME|all] \
                            [--platform-file PATH] [--two-port] [--gantt] [--execute]"
                    .into())
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
        i += 1;
    }
    if args.q == 0 || args.r == 0 || args.t == 0 || args.s == 0 {
        return Err("--q and every dimension of --blocks must be at least 1".into());
    }
    if args.platform_file.is_some()
        && (args.algorithm.is_some() || args.two_port || args.gantt || args.execute)
    {
        return Err("--platform-file runs the heterogeneous two-phase simulation only: it cannot \
                    be combined with --algorithm, --two-port, --gantt or --execute"
            .into());
    }
    Ok(args)
}

fn algorithm_by_name(name: &str) -> Option<AlgorithmKind> {
    AlgorithmKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let problem = Partition::from_blocks(args.r, args.s, args.t, args.q);

    // A platform file switches to the heterogeneous two-phase scheduler.
    if let Some(path) = &args.platform_file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let platform = match mwp_platform::textfmt::parse(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
        };
        use mwp_core::algorithms::heterogeneous::simulate_heterogeneous;
        println!(
            "heterogeneous platform ({} workers from {path}), problem: {problem}",
            platform.len()
        );
        let bound = steady_state(&platform).throughput;
        println!("steady-state bound: {bound:.4} updates/unit");
        println!("{:<12} {:>14} {:>12} {:>9}", "rule", "makespan", "throughput", "of bound");
        for (rule, name) in [
            (SelectionRule::Global, "global"),
            (SelectionRule::Local, "local"),
            (SelectionRule::TwoStepLookahead, "two-step"),
        ] {
            match simulate_heterogeneous(&platform, &problem, rule) {
                Ok(report) => println!(
                    "{name:<12} {:>14.1} {:>12.4} {:>8.0}%",
                    report.makespan.value(),
                    report.throughput(),
                    100.0 * report.throughput() / bound
                ),
                Err(e) => {
                    eprintln!("{name}: simulation failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    let platform = match Platform::homogeneous(args.workers, args.c, args.w, args.mem) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("invalid platform: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "platform: {} workers (c = {:.3e}, w = {:.3e}, m = {}), problem: {problem}",
        args.workers, args.c, args.w, args.mem
    );

    let algorithm = args.algorithm.as_deref().unwrap_or("HoLM");
    let kinds: Vec<AlgorithmKind> = if algorithm.eq_ignore_ascii_case("all") {
        AlgorithmKind::ALL.to_vec()
    } else {
        match algorithm_by_name(algorithm) {
            Some(k) => vec![k],
            None => {
                eprintln!(
                    "unknown algorithm {algorithm:?}; choose one of {} or 'all'",
                    AlgorithmKind::ALL.map(|k| k.name()).join(", ")
                );
                std::process::exit(2);
            }
        }
    };

    println!(
        "{:<8} {:>14} {:>9} {:>8} {:>9}",
        "algo", "makespan (s)", "port %", "workers", "CCR"
    );
    for kind in &kinds {
        let result = if args.two_port {
            simulate_two_port(*kind, &platform, &problem)
        } else {
            simulate(*kind, &platform, &problem)
        };
        match result {
            Ok(report) => {
                println!(
                    "{:<8} {:>14.1} {:>8.0}% {:>8} {:>9.4}",
                    kind.name(),
                    report.makespan.value(),
                    100.0 * report.port_utilization(),
                    report.workers_used(),
                    report.measured_ccr()
                );
            }
            Err(e) => println!("{:<8} failed: {e}", kind.name()),
        }
    }

    if args.gantt {
        let kind = kinds[0];
        match simulate_traced(kind, &platform, &problem) {
            Ok(report) => {
                println!("\n{} schedule:", kind.name());
                println!("{}", gantt::render(&report.trace, args.workers, 100));
            }
            Err(e) => eprintln!("gantt failed: {e}"),
        }
    }

    if args.execute {
        use mwp_blockmat::fill::random_matrix;
        use mwp_blockmat::gemm::verify_product;
        if args.r * args.s * args.t > 64_000 {
            eprintln!("--execute skipped: problem too large for a real run (r·s·t > 64000)");
            std::process::exit(1);
        }
        let a = random_matrix(args.r, args.t, args.q, 1);
        let b = random_matrix(args.t, args.s, args.q, 2);
        let c0 = random_matrix(args.r, args.s, args.q, 3);
        match run_holm(&platform, &a, &b, c0.clone(), 0.0) {
            Ok(out) => match verify_product(&out.c, &c0, &a, &b, 1e-9) {
                Ok(err) => println!(
                    "\nreal execution: {} blocks moved by {} worker{} on chunks of side {} in \
                     {:?} on the {} kernel; verified (max abs error {err:.2e})",
                    out.blocks_moved,
                    out.workers_used,
                    if out.workers_used == 1 { "" } else { "s" },
                    out.chunk_side,
                    out.wall,
                    mwp_blockmat::kernel::active().name()
                ),
                Err(err) => {
                    eprintln!("real execution produced a WRONG product (error {err})");
                    std::process::exit(1);
                }
            },
            Err(e) => {
                eprintln!("real execution failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
