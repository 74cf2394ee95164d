//! Capacity planning with the paper's formulas: given hardware and a
//! workload, how many workers are worth enrolling, and what does buying
//! more memory or faster links actually change?
//!
//! ```text
//! cargo run --release --example cluster_sizing
//! ```

use master_worker_matrix::core::selection::homogeneous::ideal_worker_count;
use master_worker_matrix::prelude::*;

fn main() {
    let q = 80;
    let problem = Partition::from_dims(16_000, 16_000, 64_000, q);
    println!("workload: {problem}\n");

    // ------------------------------------------------------------------
    // 1. How many workers saturate the master on each network generation?
    // ------------------------------------------------------------------
    println!("enrollment P = ceil(µw/2c) by memory and network:");
    println!(
        "{:<12} {:>10} {:>6} {:>10}   beyond P the master port is the bottleneck",
        "network", "mem (MB)", "µ", "P"
    );
    for (hw, net) in [
        (HardwareProfile::tennessee_2006(), "100 Mbps"),
        (HardwareProfile::modern(), "10 GbE"),
    ] {
        let cm = CostModel::from_profile(q, &hw);
        for mem_mb in [132usize, 512, 2048] {
            let m = cm.buffers_for_memory(mem_mb * 1024 * 1024);
            let mu = MemoryLayout::MaxReuseOverlapped.mu(m);
            let p = ideal_worker_count(mu, cm.w(), cm.c());
            println!("{net:<12} {mem_mb:>10} {mu:>6} {p:>10}");
        }
    }

    // ------------------------------------------------------------------
    // 2. Does adding workers past P help? Simulate and see.
    // ------------------------------------------------------------------
    let cm = CostModel::from_profile(q, &HardwareProfile::tennessee_2006());
    let m = cm.buffers_for_memory(512 * 1024 * 1024);
    println!("\nmakespan vs cluster size (512 MB workers, 100 Mbps):");
    let mut last = f64::INFINITY;
    for p in [1usize, 2, 4, 8, 16] {
        let platform = Platform::homogeneous(p, cm.c(), cm.w(), m)
            .expect("valid platform");
        let report = simulate(AlgorithmKind::ORROML, &platform, &problem).expect("simulation");
        let t = report.makespan.value();
        let marker = if t < last * 0.95 { "" } else { "   <- diminishing returns" };
        println!("  p = {p:>2}: {t:>8.0} s{marker}");
        last = t;
    }

    // ------------------------------------------------------------------
    // 3. The communication floor: no cluster can beat the lower bound.
    // ------------------------------------------------------------------
    let mu = MemoryLayout::MaxReuseOverlapped.mu(m);
    println!(
        "\ncommunication floor: CCR ≥ sqrt(27/8m) = {:.4}; the maximum re-use layout \
         achieves 2/t + 2/µ = {:.4} here — within {:.1}% of optimal.",
        bounds::lower_bound_loomis_whitney(m),
        bounds::ccr_max_reuse(mu, problem.t),
        100.0 * (bounds::ccr_max_reuse_asymptotic(m) / bounds::lower_bound_loomis_whitney(m) - 1.0)
    );
}
