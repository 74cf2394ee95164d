//! Render ASCII Gantt charts of simulated schedules — the textual
//! counterpart of the paper's Figures 7 and 8 (master row `M`, worker
//! rows; `s` = send, `r` = receive, `#` = compute).
//!
//! ```text
//! cargo run --release --example trace_gantt
//! ```

use master_worker_matrix::prelude::*;
use mwp_core::algorithms::heterogeneous::HeterogeneousPolicy;
use mwp_sim::gantt;

fn main() {
    // ------------------------------------------------------------------
    // 1. The Table 2 platform under the global selection (Figure 7).
    // ------------------------------------------------------------------
    let platform = Platform::new(vec![
        WorkerParams::new(2.0, 2.0, 60),
        WorkerParams::new(3.0, 3.0, 396),
        WorkerParams::new(5.0, 1.0, 140),
    ])
    .expect("valid platform");
    let problem = Partition::from_blocks(36, 72, 6, 80);
    let mut policy = HeterogeneousPolicy::plan(&platform, &problem, SelectionRule::Global);
    let report = Simulator::new(platform.clone()).run(&mut policy).expect("simulation");
    println!("=== Figure 7 style: global selection on the Table 2 platform ===");
    println!("{}", gantt::render_until(&report.trace, 3, 100, 2_000.0));

    // ------------------------------------------------------------------
    // 2. Same platform, local selection (Figure 8).
    // ------------------------------------------------------------------
    let mut policy = HeterogeneousPolicy::plan(&platform, &problem, SelectionRule::Local);
    let report = Simulator::new(platform.clone()).run(&mut policy).expect("simulation");
    println!("=== Figure 8 style: local selection ===");
    println!("{}", gantt::render_until(&report.trace, 3, 100, 2_000.0));

    // ------------------------------------------------------------------
    // 3. HoLM on a homogeneous platform: the Algorithm 1 lockstep.
    // ------------------------------------------------------------------
    let homo = Platform::homogeneous(4, 4.0, 1.0, 60).expect("valid platform");
    let small = Partition::from_blocks(12, 12, 8, 80);
    let report = simulate_traced(AlgorithmKind::HoLM, &homo, &small).expect("simulation");
    println!("=== HoLM (Algorithm 1) on 4 identical workers ===");
    println!("{}", gantt::render(&report.trace, 4, 100));
    println!(
        "makespan {:.0}, port utilization {:.0}%, workers used {}",
        report.makespan.value(),
        100.0 * report.port_utilization(),
        report.workers_used()
    );
}
