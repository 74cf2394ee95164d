//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p mwp-bench --bin experiments          # full sizes
//! cargo run --release -p mwp-bench --bin experiments -- quick # scaled down
//! cargo run --release -p mwp-bench --bin experiments -- e8    # one experiment
//! ```

use mwp_bench::experiments::{Fidelity, ALL};

fn main() {
    let mut fidelity = Fidelity::Full;
    let mut wanted: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "quick" {
            fidelity = Fidelity::Quick;
        } else if ALL.iter().any(|(name, _)| *name == arg) {
            wanted.push(arg);
        } else {
            let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "unknown argument `{arg}`: expected `quick` or one of {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }

    println!("# Experiment results ({fidelity:?} fidelity)\n");
    for (name, run) in ALL {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == name) {
            continue;
        }
        let start = std::time::Instant::now();
        let table = run(fidelity);
        println!("{table}");
        eprintln!("[{name} done in {:.2?}]", start.elapsed());
    }
}
